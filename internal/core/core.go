// Package core is the library facade: it wires the simulator, the
// classifier, the clustering pipeline, and every per-figure analyzer
// into one reproduction pipeline, and post-populates the external threat
// feeds (Killnet list, Shadowserver key report) the section 9 case study
// joins against.
package core

import (
	"io"
	"math/rand"

	"honeynet/internal/abusedb"
	"honeynet/internal/analysis"
	"honeynet/internal/botnet"
	"honeynet/internal/classify"
	"honeynet/internal/collector"
	"honeynet/internal/parallel"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
)

// Pipeline bundles a dataset with every analyzer input.
type Pipeline struct {
	World *analysis.World
	// Scale records the simulation scale for paper-vs-measured notes.
	Scale float64
	// MissingJoins lists the join databases FromRecordCursor substituted
	// with empty ones because the caller had none. Figures that join on
	// them (7, 8, 9, 17, and the mdrfckr case study) render empty.
	MissingJoins []string
}

// Simulate generates the synthetic 33-month dataset and prepares the
// analysis world, including the external IP feeds.
func Simulate(cfg simulate.Config) (*Pipeline, error) {
	res, err := simulate.Run(cfg)
	if err != nil {
		return nil, err
	}
	w := &analysis.World{
		Store:      res.Store,
		Registry:   res.Registry,
		AbuseDB:    res.AbuseDB,
		Classifier: classify.New(),
		Workers:    cfg.Workers,
		Tracer:     cfg.Tracer,
	}
	populateFeeds(w, cfg.Seed)
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1000
	}
	return &Pipeline{World: w, Scale: scale}, nil
}

// RecordSource is the streaming iterator FromRecordCursor consumes:
// the Next/Record/Err shape of session.Reader, store.StreamCursor,
// store.FleetStream, and every store cursor.
type RecordSource interface {
	Next() bool
	Record() *session.Record
	Err() error
}

// FromRecordCursor is the one way a dataset becomes a pipeline: it
// drains a streaming record source — one record at a time, no
// intermediate slice — into the collector, so a load costs the
// collector's working set instead of twice the dataset. The source's
// order is the figures' order. Registry- and abuse-joined figures need
// the corresponding databases; a nil w, or nil databases in it,
// substitutes fresh empty ones and records the substitution in
// Pipeline.MissingJoins so callers can warn instead of silently
// printing empty joins.
func FromRecordCursor(src RecordSource, w *analysis.World) (*Pipeline, error) {
	if w == nil {
		w = &analysis.World{}
	}
	store := collector.NewStore()
	for src.Next() {
		store.Add(src.Record())
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	w.Store = store
	if w.Classifier == nil {
		w.Classifier = classify.New()
	}
	p := &Pipeline{World: w, Scale: 1}
	if w.AbuseDB == nil {
		w.AbuseDB = abusedb.New()
		p.MissingJoins = append(p.MissingJoins, "abusedb")
	}
	if w.Registry == nil {
		w.Registry = simulate.Registry(0)
		p.MissingJoins = append(p.MissingJoins, "asdb")
	}
	return p, nil
}

// sliceSource is a record slice as a RecordSource.
type sliceSource struct {
	recs []*session.Record
	i    int
}

func (s *sliceSource) Next() bool              { s.i++; return s.i <= len(s.recs) }
func (s *sliceSource) Record() *session.Record { return s.recs[s.i-1] }
func (s *sliceSource) Err() error              { return nil }

// FromRecords is FromRecordCursor over a record set already in memory
// (captured by live honeypots, or a dataset hnanalyze -where narrowed).
func FromRecords(recs []*session.Record, w *analysis.World) *Pipeline {
	p, _ := FromRecordCursor(&sliceSource{recs: recs}, w) // a slice never errs
	return p
}

// populateFeeds installs the external threat-intelligence joins of
// section 9: 988 of the campaign's IPs on the Killnet proxy list (the
// published overlap) and the Shadowserver special-report prevalence of
// the installed key (>13k hosts — a global number, not scaled by the
// honeynet's vantage).
func populateFeeds(w *analysis.World, seed int64) {
	// Deterministic subset of the sorted campaign IPs: the same
	// 988/270k fraction the paper found on the Killnet list.
	list := analysis.MdrfckrIPs(w)
	rng := rand.New(rand.NewSource(seed + 99))
	want := int(float64(len(list)) * 988.0 / 270000.0)
	if want < 1 && len(list) > 0 {
		want = 1
	}
	perm := rng.Perm(len(list))
	for i := 0; i < want && i < len(list); i++ {
		w.AbuseDB.AddKillnetIP(list[perm[i]])
	}
	w.AbuseDB.RecordCompromisedKey(botnet.MdrfckrKeyHash(), 13368)
}

// Run renders the figure table entry selector names (see Selectors) to
// out, as aligned text or CSV; "all" renders every entry in the paper's
// order. ClusterConfig tunes the section 6 pipeline.
//
// Figures run on a dependency-aware worker pool (see schedule.go): all
// analyzers are read-only over the dataset, so independent figures fill
// their buffers concurrently while the two cluster figures wait for the
// K-medoids stage. Buffers flush in table order, so the output is
// byte-identical to a serial run for any worker count, and a single
// figure is a verbatim section of "all" (Figure 5 alone lists every
// cluster, not the first 12). On a failed stage the figures before it
// (in output order) are still written.
func (p *Pipeline) Run(out io.Writer, selector string, ccfg analysis.ClusterConfig, csv bool) error {
	tasks, err := plan(selector)
	if err != nil {
		return err
	}
	w := p.World
	if ccfg.Workers == 0 {
		ccfg.Workers = w.Workers
	}
	s := &runState{w: w, ccfg: ccfg, full: selector != "all", csv: csv}
	bufs, errs := schedule(tasks, s, parallel.Workers(w.Workers))
	for i := range tasks {
		if errs[i] != nil {
			return errs[i]
		}
		if _, err := out.Write(bufs[i].Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// RunAll renders every table and figure of the evaluation as text.
func (p *Pipeline) RunAll(out io.Writer, ccfg analysis.ClusterConfig) error {
	return p.Run(out, "all", ccfg, false)
}
