// Package live is the streaming analytics subsystem: it sits on the
// ingest path (the daemon's record sink, the collector's shard append
// loop) and classifies each session as it arrives (section 5), keeping
// cumulative per-category counts that equal a batch classification of
// the same records. One Pipeline, safe for concurrent Observe calls,
// surfaced as honeynet_live_* metrics and the /live admin snapshot.
// Clustering (section 6) and the low-activity windows of sections 9–10
// are batch only, over the stored records.
package live

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"honeynet/internal/classify"
	"honeynet/internal/obs"
	"honeynet/internal/session"
)

// Options configures a Pipeline. It has no fields: cmd/hnbench passes
// Options{} (rig.go, ingest.go, probes.go) until ROADMAP item 1(b) retires it.
type Options struct{}

// Pipeline is the streaming analytics engine: Observe every ingested
// record and it keeps the classification counts current. Safe for
// concurrent use; Observe is designed to sit directly on the ingest hot
// path (one automaton scan per session, outside the lock). cats is the
// only copy of the counts: classified and unknown are read from it.
type Pipeline struct {
	cls *classify.Classifier

	mu    sync.Mutex
	cats  map[string]int64 // sessions with command text, by category
	stats classify.Stats   // cumulative classifier work counters

	sessions int64
	started  time.Time
}

// NewPipeline builds a Pipeline.
func NewPipeline(Options) *Pipeline {
	return &Pipeline{cls: classify.New(), cats: map[string]int64{}, started: time.Now()}
}

// Observe folds one ingested record into the live state. It never
// fails and never modifies r — safe to call from any sink or append
// path.
func (p *Pipeline) Observe(r *session.Record) {
	text := r.CommandText()
	var cat string
	var st classify.Stats
	if text != "" {
		cat = p.cls.ClassifyStats(text, &st)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	p.sessions++
	if text == "" {
		return
	}
	p.stats.Candidates += st.Candidates
	p.stats.Skipped += st.Skipped
	p.cats[cat]++
}

// classified is the number of sessions with command text observed.
// Caller holds p.mu.
func (p *Pipeline) classified() int64 {
	var n int64
	for _, c := range p.cats {
		n += c
	}
	return n
}

// unknown is the number of classified sessions that matched no rule.
// Caller holds p.mu.
func (p *Pipeline) unknown() int64 { return p.cats[classify.Unknown] }

// Matcher is the classifier's unmemoized scan under the name its one
// caller, cmd/hnbench/probes.go:288, knows it by.
type Matcher struct{ c *classify.Classifier }

// NewMatcher wraps c; see Matcher.
func NewMatcher(c *classify.Classifier) Matcher { return Matcher{c} }

// Classify is c.ClassifyStats without the counters.
func (m Matcher) Classify(text string) string { return m.c.ClassifyStats(text, nil) }

// Snapshot is the JSON document served on /live.
type Snapshot struct {
	Uptime     string `json:"uptime"`
	Sessions   int64  `json:"sessions"`
	Classified int64  `json:"classified"`
	Unknown    int64  `json:"unknown"`

	Categories []CategorySnap `json:"categories"`

	// Clustered is always zero; cmd/hnbench/rig.go's liveMetrics reads it until ROADMAP item 1(b).
	Clustered int64 `json:"-"`
	// Reclusters is always zero; cmd/hnbench/rig.go's liveMetrics reads it until ROADMAP item 1(b).
	Reclusters int64 `json:"-"`
	// Pruned is always zero; cmd/hnbench/rig.go's liveMetrics reads it until ROADMAP item 1(b).
	Pruned int64 `json:"-"`
	// Kernel is always zero; cmd/hnbench/rig.go's liveMetrics reads it until ROADMAP item 1(b).
	Kernel int64 `json:"-"`
}

// CategorySnap is one category's session count.
type CategorySnap struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

// Snapshot captures the live state. Categories sort by descending
// count then name, and are an empty list, never null, before the first
// session with command text.
func (p *Pipeline) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{
		Uptime:     time.Since(p.started).Round(time.Second).String(),
		Sessions:   p.sessions,
		Classified: p.classified(),
		Unknown:    p.unknown(),
		Categories: make([]CategorySnap, 0, len(p.cats)),
	}
	for name, n := range p.cats {
		s.Categories = append(s.Categories, CategorySnap{Name: name, Count: n})
	}
	sort.Slice(s.Categories, func(i, j int) bool {
		if s.Categories[i].Count != s.Categories[j].Count {
			return s.Categories[i].Count > s.Categories[j].Count
		}
		return s.Categories[i].Name < s.Categories[j].Name
	})
	return s
}

// Handler serves the /live JSON snapshot.
func (p *Pipeline) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p.Snapshot())
	})
}

// locked reads one int64 counter under the lock (CounterFunc bridge).
func (p *Pipeline) locked(f func() int64) func() int64 {
	return func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return f()
	}
}

// Register exposes the pipeline on reg:
//
//	honeynet_live_sessions_total
//	honeynet_live_classified_total
//	honeynet_live_unknown_total
//	honeynet_live_rule_candidates_total
//	honeynet_live_rules_skipped_total
func (p *Pipeline) Register(reg *obs.Registry) {
	reg.CounterFunc("honeynet_live_sessions_total",
		"Records observed by the live pipeline.",
		p.locked(func() int64 { return p.sessions }))
	reg.CounterFunc("honeynet_live_classified_total",
		"Sessions with command text classified at ingest.",
		p.locked(p.classified))
	reg.CounterFunc("honeynet_live_unknown_total",
		"Classified sessions that matched no rule.",
		p.locked(p.unknown))
	reg.CounterFunc("honeynet_live_rule_candidates_total",
		"Rules regex-verified after surviving the automaton prefilter.",
		p.locked(func() int64 { return int64(p.stats.Candidates) }))
	reg.CounterFunc("honeynet_live_rules_skipped_total",
		"Rules eliminated by the single-pass automaton without any regex.",
		p.locked(func() int64 { return int64(p.stats.Skipped) }))
}
