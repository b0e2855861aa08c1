// Package live is the streaming analytics subsystem: it sits on the
// ingest path (the daemon's record sink, the collector's shard append
// loop) and maintains, incrementally, per-session classification
// (section 5) and campaign/wave detection (sections 9–10). One
// Pipeline, two engines, safe for concurrent Observe calls, surfaced as
// honeynet_live_* metrics and the /live admin snapshot. Clustering
// (section 6) is batch only: internal/cluster over the stored records.
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

const (
	// fastHalfLife and slowHalfLife set the EWMA pair behind wave
	// detection, in event time.
	fastHalfLife = 5 * time.Minute
	slowHalfLife = 6 * time.Hour
	// A wave opens when a category's fast rate exceeds onsetFactor times
	// the slow baseline and closes when it falls below offsetFactor times
	// it; below minWaveRate events/min waves never open.
	onsetFactor  = 8
	offsetFactor = 2
	minWaveRate  = 1
	// maxWaves bounds the retained wave log.
	maxWaves = 256
)

// Pipeline is the streaming analytics engine: Observe every ingested
// record and it keeps classification counts and campaign waves
// current. Safe for concurrent use; Observe is designed to sit directly
// on the ingest hot path (one automaton scan per session, outside the
// lock). The per-category counts are the wave detector's: one copy.
type Pipeline struct {
	cls *classify.Classifier

	mu    sync.Mutex
	camp  *campaigns
	stats classify.Stats // cumulative classifier work counters

	sessions int64
	started  time.Time
}

// NewPipeline builds a Pipeline.
func NewPipeline(Options) *Pipeline {
	return &Pipeline{
		cls: classify.New(),
		camp: newCampaigns(fastHalfLife, slowHalfLife,
			onsetFactor, offsetFactor, minWaveRate, maxWaves),
		started: time.Now(),
	}
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
	t := r.End
	if t.IsZero() {
		t = r.Start
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	p.sessions++
	if text == "" {
		return
	}
	p.stats.Candidates += st.Candidates
	p.stats.Skipped += st.Skipped
	p.camp.observe(cat, t)
}

// classified is the number of sessions with command text observed.
// Caller holds p.mu.
func (p *Pipeline) classified() int64 { return p.camp.total.count }

// unknown is the number of classified sessions that matched no rule.
// Caller holds p.mu.
func (p *Pipeline) unknown() int64 {
	if r := p.camp.cats[classify.Unknown]; r != nil {
		return r.count
	}
	return 0
}

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
	Waves      []Wave         `json:"waves"`
	ActiveDrop bool           `json:"activity_drop"`

	// Clustered is always zero; cmd/hnbench/rig.go's liveMetrics reads it until ROADMAP item 1(b).
	Clustered int64 `json:"-"`
	// Reclusters is always zero; cmd/hnbench/rig.go's liveMetrics reads it until ROADMAP item 1(b).
	Reclusters int64 `json:"-"`
	// Pruned is always zero; cmd/hnbench/rig.go's liveMetrics reads it until ROADMAP item 1(b).
	Pruned int64 `json:"-"`
	// Kernel is always zero; cmd/hnbench/rig.go's liveMetrics reads it until ROADMAP item 1(b).
	Kernel int64 `json:"-"`
}

// CategorySnap is one category's live rate state.
type CategorySnap struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Rate  float64 `json:"rate_per_min"`
	Base  float64 `json:"baseline_per_min"`
	Wave  bool    `json:"wave"`
}

// Snapshot captures the live state. Categories sort by descending
// count then name.
func (p *Pipeline) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{
		Uptime:     time.Since(p.started).Round(time.Second).String(),
		Sessions:   p.sessions,
		Classified: p.classified(),
		Unknown:    p.unknown(),
		ActiveDrop: p.camp.drop,
	}
	for name, r := range p.camp.cats {
		s.Categories = append(s.Categories, CategorySnap{
			Name: name, Count: r.count, Rate: r.fast, Base: r.slow, Wave: r.wave != 0,
		})
	}
	sort.Slice(s.Categories, func(i, j int) bool {
		if s.Categories[i].Count != s.Categories[j].Count {
			return s.Categories[i].Count > s.Categories[j].Count
		}
		return s.Categories[i].Name < s.Categories[j].Name
	})
	s.Waves = append([]Wave(nil), p.camp.waves...)
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
//	honeynet_live_waves_total
//	honeynet_live_waves_active
//	honeynet_live_activity_drops_total
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
	reg.CounterFunc("honeynet_live_waves_total",
		"Campaign waves detected (open + closed).",
		p.locked(func() int64 { return int64(len(p.camp.waves)) }))
	reg.GaugeFunc("honeynet_live_waves_active",
		"Currently open campaign waves.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.camp.active)
		})
	reg.CounterFunc("honeynet_live_activity_drops_total",
		"Fleet-wide activity-drop events detected.",
		p.locked(func() int64 { return p.camp.dropsTot }))
}
