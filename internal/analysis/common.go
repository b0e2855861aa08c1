// Package analysis implements one analyzer per table and figure of the
// paper's evaluation. Each analyzer is a function of the derived views
// of the World's record set (views.go, the only code that reads it),
// plus the AS registry and abuse database where the figure joins
// on them, and produces both a typed result and a printable
// report.Table.
package analysis

import (
	"sort"
	"sync"
	"time"

	"honeynet/internal/abusedb"
	"honeynet/internal/asdb"
	"honeynet/internal/classify"
	"honeynet/internal/obs"
	"honeynet/internal/parallel"
	"honeynet/internal/session"
)

// World bundles everything the analyzers read. Build it once per
// record set (core.FromRecords): its views and sample are memos of
// Records, so a World over other records is a new World.
type World struct {
	// Records is the dataset every figure reads, in the figures' order.
	Records    []*session.Record
	Registry   *asdb.Registry
	AbuseDB    *abusedb.DB
	Classifier *classify.Classifier
	// Workers caps the goroutines used by the parallel analyzers
	// (<= 0 means runtime.GOMAXPROCS(0), 1 is fully serial). Every analyzer
	// produces identical output for every value.
	Workers int
	// Tracer, if set, records per-phase wall time (hnanalyze -timings).
	// Spans only observe the clock: results are identical with or
	// without one.
	Tracer *obs.Tracer

	// The memoized shared DLD sample (see DLDSample): one tokenize pass
	// and one matrix fill feed both SelectK and RunClustering.
	sampleMu  sync.Mutex
	sampleCfg sampleKey
	sample    *DLDSample

	// The derived views every figure reads (see views.go).
	views views
}

// workers resolves the configured worker count.
func (w *World) workers() int { return parallel.Workers(w.Workers) }

// span starts a named phase span on the world's tracer (nil-safe).
func (w *World) span(name string) *obs.Span { return w.Tracer.Span(name) }

// IsSSH reports whether a record belongs to the SSH subset the paper's
// analyses use (section 3.3 keeps 546M of 635M sessions).
func IsSSH(r *session.Record) bool { return r.Protocol == session.ProtoSSH }

// HasExec reports whether a session attempted to execute a file.
func HasExec(r *session.Record) bool { return len(r.ExecAttempts) > 0 }

// ExecFileExists reports whether any exec attempt found its file.
func ExecFileExists(r *session.Record) bool {
	for _, e := range r.ExecAttempts {
		if e.FileExists {
			return true
		}
	}
	return false
}

// monthKey truncates to month.
func monthKey(t time.Time) time.Time {
	return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
}

// MonthlyCategoryShares counts sessions per (month, category) and
// returns sorted months plus per-month category counts.
type MonthlyCategoryShares struct {
	Months []time.Time
	// Counts[month][category] = sessions.
	Counts map[time.Time]map[string]int
	// Totals[month] = all sessions that month.
	Totals map[time.Time]int
}

// TopCategories returns the overall top-n categories by session count.
func (m *MonthlyCategoryShares) TopCategories(n int) []string {
	totals := map[string]int{}
	for _, byCat := range m.Counts {
		for c, v := range byCat {
			totals[c] += v
		}
	}
	cats := byCount(totals)
	if len(cats) > n {
		cats = cats[:n]
	}
	return cats
}

// byCount returns the keys of a tally, largest count first; ties are
// alphabetical, so the order is deterministic.
func byCount(counts map[string]int) []string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// Share returns the category's share of a month's sessions.
func (m *MonthlyCategoryShares) Share(month time.Time, cat string) float64 {
	t := m.Totals[month]
	if t == 0 {
		return 0
	}
	return float64(m.Counts[month][cat]) / float64(t)
}

// categorize builds monthly category shares over the command sessions
// keep selects; the tally is serial (counts are order-invariant anyway).
func categorize(w *World, keep func(*session.Record) bool) *MonthlyCategoryShares {
	out := &MonthlyCategoryShares{
		Counts: map[time.Time]map[string]int{},
		Totals: map[time.Time]int{},
	}
	cats := w.categories()
	for i, r := range w.commands().recs {
		if !keep(r) {
			continue
		}
		m := r.Month()
		byCat, ok := out.Counts[m]
		if !ok {
			byCat = map[string]int{}
			out.Counts[m] = byCat
		}
		byCat[cats[i]]++
		out.Totals[m]++
	}
	out.Months = sortedMonths(out.Counts)
	return out
}

// sortedMonths returns the sorted union of the keys of monthly (or
// daily) groupings.
func sortedMonths[T any](groups ...map[time.Time]T) []time.Time {
	seen := map[time.Time]bool{}
	var out []time.Time
	for _, g := range groups {
		for k := range g {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// quantile returns the q-quantile (0..1) of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
