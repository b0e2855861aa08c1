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
	"honeynet/internal/parallel"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
)

// Pipeline bundles a dataset with every analyzer input.
type Pipeline struct {
	World *analysis.World
	// MissingJoins lists the join databases FromRecords substituted
	// because the template had none. An empty "abusedb" leaves Figures 5
	// and 6 without family labels and zeroes section 7's "storage IPs in
	// abuse feeds" row and section 9's Killnet and compromised-host
	// rows. An "asdb" is the seed-0 registry, which Figures 7, 8 and 17
	// join on.
	MissingJoins []string
}

// Simulate generates the synthetic 33-month dataset and prepares the
// analysis world, including the external IP feeds.
func Simulate(cfg simulate.Config) (*Pipeline, error) {
	res, err := simulate.Run(cfg)
	if err != nil {
		return nil, err
	}
	p := FromRecords(res.Store.All(), &analysis.World{
		Registry: res.Registry,
		AbuseDB:  res.AbuseDB,
		Workers:  cfg.Workers,
		Tracer:   cfg.Tracer,
	})
	populateFeeds(p.World, cfg.Seed)
	return p, nil
}

// RecordSource is the streaming iterator FromRecordCursor consumes:
// the Next/Record/Err shape of session.Reader, store.StreamCursor,
// store.FleetStream, and every store cursor.
type RecordSource interface {
	Next() bool
	Record() *session.Record
	Err() error
}

// FromRecordCursor drains a streaming record source into a record set
// and builds the pipeline over it with FromRecords. The source's order
// is the figures' order.
func FromRecordCursor(src RecordSource, tmpl *analysis.World) (*Pipeline, error) {
	var recs []*session.Record
	for src.Next() {
		recs = append(recs, src.Record())
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return FromRecords(recs, tmpl), nil
}

// FromRecords is the one way a dataset becomes a pipeline: a new World
// over recs, which it retains, with the template's databases and
// settings. It never writes to tmpl, so a pipeline over a subset of
// another's records (hnanalyze -where) leaves that one as it was.
// Registry- and abuse-joined figures need the corresponding databases;
// a nil tmpl, or nil databases in it, substitutes fresh empty ones and
// records the substitution in Pipeline.MissingJoins so callers can
// warn instead of silently printing empty joins.
func FromRecords(recs []*session.Record, tmpl *analysis.World) *Pipeline {
	if tmpl == nil {
		tmpl = &analysis.World{}
	}
	w := &analysis.World{
		Records:    recs,
		Registry:   tmpl.Registry,
		AbuseDB:    tmpl.AbuseDB,
		Classifier: tmpl.Classifier,
		Workers:    tmpl.Workers,
		Tracer:     tmpl.Tracer,
	}
	if w.Classifier == nil {
		w.Classifier = classify.New()
	}
	p := &Pipeline{World: w}
	if w.AbuseDB == nil {
		w.AbuseDB = abusedb.New()
		p.MissingJoins = append(p.MissingJoins, "abusedb")
	}
	if w.Registry == nil {
		w.Registry = simulate.Registry(0)
		p.MissingJoins = append(p.MissingJoins, "asdb")
	}
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
