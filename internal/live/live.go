// Package live is the streaming analytics subsystem: it sits on the
// ingest path (the daemon's record sink, the collector's shard append
// loop) and maintains, incrementally, the state the batch analyzer
// computes offline — per-session classification (section 5),
// nearest-medoid cluster assignment (section 6), and campaign/wave
// detection (sections 9–10). One Pipeline, three engines, all safe for
// concurrent Observe calls, surfaced as honeynet_live_* metrics and the
// /live admin snapshot.
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

// Options tunes a Pipeline. The zero value takes every default.
type Options struct {
	// SilhouetteFloor triggers re-clustering when the reservoir's mean
	// silhouette under the live medoids decays below it (default 0.25).
	SilhouetteFloor float64
	// RecheckEvery is how many assignments run between silhouette
	// checks (default 256).
	RecheckEvery int
	// Seed fixes the reservoir sampling; together with arrival order it
	// makes the whole engine deterministic (default 1).
	Seed int64
}

func (o *Options) defaults() {
	if o.SilhouetteFloor == 0 {
		o.SilhouetteFloor = 0.25
	}
	if o.RecheckEvery == 0 {
		o.RecheckEvery = 256
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

const (
	// maxClusters caps the live medoid set: a session farther than
	// newClusterDist from every medoid founds a cluster only while
	// fewer than this many exist, and joins its nearest one after that.
	// It is not the paper's k=90, which the batch clustering
	// (internal/cluster) picks; it bounds the medoids each Observe
	// compares a session against.
	maxClusters = 24
	// reservoirSize is the uniform sample behind silhouette checks and
	// re-clustering.
	reservoirSize = 192
	// newClusterDist is the normalized DLD past which a session founds a
	// new cluster instead of joining its nearest medoid.
	newClusterDist = 0.6

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
// record and it keeps classification counts, cluster assignments, and
// campaign waves current. Safe for concurrent use; Observe is designed
// to sit directly on the ingest hot path (one automaton scan per
// session; the DLD row only runs for download sessions, the same
// population the batch §6 clustering samples).
type Pipeline struct {
	cls *classify.Classifier

	mu    sync.Mutex
	asg   *assigner
	camp  *campaigns
	stats classify.Stats // cumulative classifier work counters

	sessions   int64
	classified int64
	unknown    int64
	clustered  int64
	catCounts  map[string]int64
	started    time.Time
}

// NewPipeline builds a Pipeline from opts.
func NewPipeline(opts Options) *Pipeline {
	opts.defaults()
	return &Pipeline{
		cls: classify.New(),
		asg: newAssigner(maxClusters, reservoirSize, newClusterDist,
			opts.SilhouetteFloor, opts.RecheckEvery, opts.Seed),
		camp: newCampaigns(fastHalfLife, slowHalfLife,
			onsetFactor, offsetFactor, minWaveRate, maxWaves),
		catCounts: map[string]int64{},
		started:   time.Now(),
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
	p.classified++
	if cat == classify.Unknown {
		p.unknown++
	}
	p.catCounts[cat]++
	p.camp.observe(cat, t)
	// Cluster the population the batch pipeline clusters: sessions that
	// load files onto the honeypot (§6).
	if len(r.Downloads) > 0 {
		p.asg.observe(text)
		p.clustered++
	}
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
	Clustered  int64  `json:"clustered"`

	Categories []CategorySnap `json:"categories"`
	Clusters   []ClusterSnap  `json:"clusters"`
	Waves      []Wave         `json:"waves"`
	ActiveDrop bool           `json:"activity_drop"`

	Silhouette float64 `json:"silhouette"`
	Reclusters int64   `json:"reclusters"`
	Pruned     int64   `json:"assign_pruned"`
	Kernel     int64   `json:"assign_kernel"`
}

// CategorySnap is one category's live rate state.
type CategorySnap struct {
	Name  string  `json:"name"`
	Count int64   `json:"count"`
	Rate  float64 `json:"rate_per_min"`
	Base  float64 `json:"baseline_per_min"`
	Wave  bool    `json:"wave"`
}

// ClusterSnap is one live cluster.
type ClusterSnap struct {
	ID     int     `json:"id"`
	Size   int64   `json:"size"`
	Drift  float64 `json:"mean_dist"`
	Medoid string  `json:"medoid"`
}

// Snapshot captures the live state. Categories sort by descending
// count then name; clusters by id.
func (p *Pipeline) Snapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{
		Uptime:     time.Since(p.started).Round(time.Second).String(),
		Sessions:   p.sessions,
		Classified: p.classified,
		Unknown:    p.unknown,
		Clustered:  p.clustered,
		ActiveDrop: p.camp.drop,
		Silhouette: p.asg.silhouette,
		Reclusters: p.asg.reclusters,
		Pruned:     p.asg.pruned,
		Kernel:     p.asg.kernel,
	}
	for name, n := range p.catCounts {
		cs := CategorySnap{Name: name, Count: n}
		if r := p.camp.cats[name]; r != nil {
			cs.Rate, cs.Base, cs.Wave = r.fast, r.slow, r.wave != 0
		}
		s.Categories = append(s.Categories, cs)
	}
	sort.Slice(s.Categories, func(i, j int) bool {
		if s.Categories[i].Count != s.Categories[j].Count {
			return s.Categories[i].Count > s.Categories[j].Count
		}
		return s.Categories[i].Name < s.Categories[j].Name
	})
	for i := range p.asg.medoids {
		m := &p.asg.medoids[i]
		cs := ClusterSnap{ID: i, Size: m.count, Medoid: truncate(m.text, 120)}
		if m.count > 0 {
			cs.Drift = m.sumDist / float64(m.count)
		}
		s.Clusters = append(s.Clusters, cs)
	}
	s.Waves = append([]Wave(nil), p.camp.waves...)
	return s
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
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
//	honeynet_live_clustered_total
//	honeynet_live_rule_candidates_total
//	honeynet_live_rules_skipped_total
//	honeynet_live_clusters
//	honeynet_live_reclusters_total
//	honeynet_live_silhouette
//	honeynet_live_assign_pruned_total
//	honeynet_live_assign_kernel_total
//	honeynet_live_waves_total
//	honeynet_live_waves_active
//	honeynet_live_activity_drops_total
func (p *Pipeline) Register(reg *obs.Registry) {
	reg.CounterFunc("honeynet_live_sessions_total",
		"Records observed by the live pipeline.",
		p.locked(func() int64 { return p.sessions }))
	reg.CounterFunc("honeynet_live_classified_total",
		"Sessions with command text classified at ingest.",
		p.locked(func() int64 { return p.classified }))
	reg.CounterFunc("honeynet_live_unknown_total",
		"Classified sessions that matched no rule.",
		p.locked(func() int64 { return p.unknown }))
	reg.CounterFunc("honeynet_live_clustered_total",
		"Download sessions assigned to a live cluster.",
		p.locked(func() int64 { return p.clustered }))
	reg.CounterFunc("honeynet_live_rule_candidates_total",
		"Rules regex-verified after surviving the automaton prefilter.",
		p.locked(func() int64 { return int64(p.stats.Candidates) }))
	reg.CounterFunc("honeynet_live_rules_skipped_total",
		"Rules eliminated by the single-pass automaton without any regex.",
		p.locked(func() int64 { return int64(p.stats.Skipped) }))
	reg.GaugeFunc("honeynet_live_clusters",
		"Live medoid count.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.asg.medoids))
		})
	reg.CounterFunc("honeynet_live_reclusters_total",
		"Bounded K-medoids rebuilds triggered by silhouette decay.",
		p.locked(func() int64 { return p.asg.reclusters }))
	reg.GaugeFunc("honeynet_live_silhouette",
		"Mean silhouette of the reservoir under the live medoids at the last drift check.",
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return p.asg.silhouette
		})
	reg.CounterFunc("honeynet_live_assign_pruned_total",
		"Medoid candidates discarded by the multiset lower bound before any kernel run.",
		p.locked(func() int64 { return p.asg.pruned }))
	reg.CounterFunc("honeynet_live_assign_kernel_total",
		"Full DLD kernel evaluations run by online assignment.",
		p.locked(func() int64 { return p.asg.kernel }))
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
