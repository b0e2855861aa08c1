package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"honeynet/internal/fleet"
	"honeynet/internal/live"
	"honeynet/internal/obs"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
	"honeynet/internal/store"
)

const (
	ingestEdges = 2
	// corpusScale is the simulator's volume divisor: the paper's
	// 33-month window at 1:10000 is about 65 000 sessions in the
	// paper's kind mix, about 9 % of them download sessions.
	corpusScale = 10000
	// ingestPassesPerSlice makes a slice long enough to hold several
	// background seals of every store: the stores seal each 16 MiB of
	// WAL, about once a pass, in a burst that makes single passes differ
	// by 3x in throughput depending on how many seals land in them.
	ingestPassesPerSlice = 3
)

// corpus is the simulated dataset every non-wire workload starts from.
type corpus struct {
	recs   []*session.Record              // simulation order
	byNode [ingestEdges][]*session.Record // recs split across the edges by honeypot
	simS   float64                        // simulate.Run wall time
}

func buildCorpus(cfg config) (*corpus, error) {
	t0 := time.Now()
	res, err := simulate.Run(simulate.Config{Scale: corpusScale * float64(cfg.size), Seed: cfg.seed, Workers: maxProcs})
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	c := &corpus{recs: res.Store.All(), simS: time.Since(t0).Seconds()}
	if len(c.recs) < 2*ingestEdges {
		return nil, fmt.Errorf("simulate: only %d records at scale %g", len(c.recs), corpusScale*float64(cfg.size))
	}
	for _, r := range c.recs {
		// hp-001 … hp-221: odd and even honeypots report to different edges.
		n := int(r.HoneypotID[len(r.HoneypotID)-1]-'0') % ingestEdges
		c.byNode[n] = append(c.byNode[n], r)
	}
	return c, nil
}

// sample is an evenly strided subset of the corpus for the layer
// probes, so they see the corpus's own mix of session kinds.
func (c *corpus) sample() []*session.Record {
	stride := max(len(c.recs)/sampleRecords, 1)
	var out []*session.Record
	for i := 0; i < len(c.recs); i += stride {
		out = append(out, c.recs[i])
	}
	return out
}

// rowOrder is the records keep admits in the order a fleet row query
// returns them: each shard streams its matches month by month in
// append order, and the fleet takes whichever shard's head has the
// earlier (month, Start), the lower node id on a tie.
func (c *corpus) rowOrder(keep func(*session.Record) bool) []*session.Record {
	var heads [ingestEdges][]*session.Record
	for n := range heads {
		for _, r := range c.byNode[n] {
			if keep(r) {
				heads[n] = append(heads[n], r)
			}
		}
		sort.SliceStable(heads[n], func(i, j int) bool { return heads[n][i].Month().Before(heads[n][j].Month()) })
	}
	var out []*session.Record
	for {
		best := -1
		for n := range heads {
			if len(heads[n]) == 0 {
				continue
			}
			if best < 0 || headBefore(heads[n][0], heads[best][0]) {
				best = n
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, heads[best][0])
		heads[best] = heads[best][1:]
	}
}

// headBefore is the fleet merge's order on two shard heads; equal heads
// keep the lower node, which the caller visits first.
func headBefore(a, b *session.Record) bool {
	if am, bm := a.Month(), b.Month(); !am.Equal(bm) {
		return am.Before(bm)
	}
	return a.Start.Before(b.Start)
}

// streamOrder is the whole corpus in the order Fleet.Stream yields it:
// the total order (Start, node, seq).
func (c *corpus) streamOrder() []*session.Record {
	type ent struct {
		r         *session.Record
		node, seq int
	}
	ents := make([]ent, 0, len(c.recs))
	for n := range c.byNode {
		for i, r := range c.byNode[n] {
			ents = append(ents, ent{r, n, i})
		}
	}
	sort.Slice(ents, func(i, j int) bool {
		a, b := ents[i], ents[j]
		if !a.r.Start.Equal(b.r.Start) {
			return a.r.Start.Before(b.r.Start)
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.seq < b.seq
	})
	out := make([]*session.Record, len(ents))
	for i, e := range ents {
		out[i] = e.r
	}
	return out
}

// edgeRig is one edge node without its wire front: the store, live
// pipeline and forwarder that serve.go's sink feeds, built the same way
// with every option at its default.
type edgeRig struct {
	node string
	st   *store.Store
	live *live.Pipeline
	fwd  *fleet.Forwarder
	reg  *obs.Registry
}

// ingestRig is the record path behind the wire: edges appending and
// observing as the daemon's sink does, forwarders shipping to one
// collector.
type ingestRig struct {
	t0    time.Time
	coll  *collectorRig
	edges [ingestEdges]*edgeRig

	mu      sync.Mutex // guards the per-pass state the commit hook reads
	commitT [ingestEdges][]int64
	commitN [ingestEdges]int
	tr      *spanLog

	committed atomic.Int64
	closed    bool
}

func startIngestRig(dir string) (*ingestRig, error) {
	g := &ingestRig{t0: time.Now()}
	var err error
	if g.coll, err = startCollector(filepath.Join(dir, "fleet"), g.onCommit); err != nil {
		return nil, err
	}
	for i := range g.edges {
		e := &edgeRig{node: fmt.Sprintf("edge-%d", i), live: live.NewPipeline(live.Options{}), reg: obs.NewRegistry()}
		if e.st, err = store.Open(filepath.Join(dir, e.node), store.Options{}); err != nil {
			return nil, errors.Join(fmt.Errorf("edge store: %w", err), g.close())
		}
		g.edges[i] = e
		if e.fwd, err = fleet.NewForwarder(g.coll.addr, e.node, e.st, fleet.Options{}); err != nil {
			return nil, errors.Join(fmt.Errorf("forwarder: %w", err), g.close())
		}
		e.st.Register(e.reg)
		e.fwd.Register(e.reg)
		e.live.Register(e.reg)
	}
	return g, nil
}

func (g *ingestRig) onCommit(node string, _ *session.Record, t time.Time) *spanLog {
	n := int(node[len(node)-1] - '0')
	g.mu.Lock()
	if k := g.commitN[n]; k < len(g.commitT[n]) {
		g.commitT[n][k] = int64(t.Sub(g.t0))
	}
	g.commitN[n]++
	tr := g.tr
	g.mu.Unlock()
	g.committed.Add(1)
	return tr
}

// passStats is what one pass of the corpus through the rig saw.
type passStats struct {
	sliceStat
	catchup            time.Duration
	maxLag             uint64
	appendUS, observe  []float64 // traced passes only
	observeDL          []float64
	appended, commitOK [ingestEdges]int
}

// pass appends and observes every record of the corpus once, each edge
// on its own goroutine, and returns when the collector has committed
// them all.
func (g *ingestRig) pass(c *corpus, tr *spanLog) (passStats, error) {
	var appendT [ingestEdges][]int64
	g.mu.Lock()
	for n := range g.edges {
		appendT[n] = make([]int64, len(c.byNode[n]))
		g.commitT[n] = make([]int64, len(c.byNode[n]))
		g.commitN[n] = 0
	}
	g.tr = tr
	g.mu.Unlock()
	want := g.committed.Load() + int64(len(c.recs))

	var ps passStats
	var mu sync.Mutex // guards ps while the edges run
	var firstErr error
	var lastAppend time.Time
	cpu0, start := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for n := range g.edges {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			e := g.edges[n]
			var appendUS, observe, observeDL []float64
			var maxLag uint64
			root := tr.open("edge.pass", n, -1, time.Now())
			for k, r := range c.byNode[n] {
				t0 := time.Now()
				if err := e.st.Append(r); err != nil {
					mu.Lock()
					firstErr = errors.Join(firstErr, fmt.Errorf("%s append: %w", e.node, err))
					mu.Unlock()
					return
				}
				t1 := time.Now()
				atomic.StoreInt64(&appendT[n][k], int64(t1.Sub(g.t0)))
				e.live.Observe(r)
				if tr == nil {
					continue
				}
				t2 := time.Now()
				tr.add("store.append", int(r.ID), root, t0, t1)
				tr.add("live.observe", int(r.ID), root, t1, t2)
				appendUS = append(appendUS, us(t1.Sub(t0)))
				observe = append(observe, us(t2.Sub(t1)))
				if len(r.Downloads) > 0 {
					observeDL = append(observeDL, us(t2.Sub(t1)))
				}
				if k&1023 == 0 {
					maxLag = max(maxLag, e.fwd.Lag())
				}
			}
			// The edge's part of the pass ends when the collector has
			// acknowledged everything it appended.
			tw := time.Now()
			e.fwd.WaitCaughtUp(30 * time.Second)
			tr.add("fleet.catchup_wait", n, root, tw, time.Now())
			tr.close(root, time.Now())
			mu.Lock()
			ps.appendUS = append(ps.appendUS, appendUS...)
			ps.observe = append(ps.observe, observe...)
			ps.observeDL = append(ps.observeDL, observeDL...)
			ps.maxLag = max(ps.maxLag, maxLag)
			if tw.After(lastAppend) {
				lastAppend = tw
			}
			ps.appended[n] = len(c.byNode[n])
			mu.Unlock()
		}(n)
	}
	wg.Wait()
	if firstErr != nil {
		return ps, firstErr
	}
	if !waitFor(30*time.Second, func() bool { return g.committed.Load() >= want }) {
		return ps, fmt.Errorf("collector has %d of %d records after 30 s", g.committed.Load(), want)
	}
	end := time.Now()
	ps.ops, ps.wall, ps.cpu = len(c.recs), end.Sub(start), cpuTime()-cpu0
	ps.catchup = end.Sub(lastAppend)
	g.mu.Lock()
	for n := range g.edges {
		ps.commitOK[n] = g.commitN[n]
		for k, tc := range g.commitT[n] {
			if ta := atomic.LoadInt64(&appendT[n][k]); tc != 0 && ta != 0 {
				ps.lat = append(ps.lat, float64(tc-ta)/1e6)
			}
		}
	}
	g.mu.Unlock()
	ps.ttq = ps.lat
	return ps, nil
}

// close drains the forwarders and closes the edge stores and the
// collector, leaving the fleet directory sealed; safe to call twice.
func (g *ingestRig) close() error {
	if g == nil || g.closed {
		return nil
	}
	g.closed = true
	var errs []error
	for _, e := range g.edges {
		if e == nil {
			continue
		}
		if e.fwd != nil {
			if !e.fwd.WaitCaughtUp(30 * time.Second) {
				errs = append(errs, fmt.Errorf("%s: forwarder not caught up after 30 s", e.node))
			}
			errs = append(errs, e.fwd.Close())
		}
		if e.st != nil {
			errs = append(errs, e.st.Close())
		}
	}
	errs = append(errs, g.coll.close())
	return errors.Join(errs...)
}

// edgeSum adds one counter across the edges' registries.
func (g *ingestRig) edgeSum(name string) float64 {
	sum := 0.0
	for _, e := range g.edges {
		sum += e.reg.Snapshot()[name]
	}
	return sum
}

// ingest is the ingest_fleet workload: one slice is one pass of the
// corpus, and an op is one record committed at the collector.
type ingest struct {
	cfg    config
	dir    string
	corpus *corpus
	rig    *ingestRig

	passes              int
	appended, committed [ingestEdges]int
	appendUS, observe   []float64
	observeDL, latMS    []float64
	catchup             []float64
	maxLag              uint64
}

func newIngest(cfg config) *ingest { return &ingest{cfg: cfg} }

func (w *ingest) p1Slices() int { return 1 }

func (w *ingest) setup(dir string) error {
	var err error
	if w.corpus, err = buildCorpus(w.cfg); err != nil {
		return err
	}
	w.dir = dir
	if w.rig, err = startIngestRig(dir); err != nil {
		return err
	}
	ps, err := w.rig.pass(w.corpus, nil) // warm-up: one pass
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for n := range ps.appended {
		w.appended[n] += ps.appended[n]
		w.committed[n] += ps.commitOK[n]
	}
	return nil
}

func (w *ingest) slice(tr *spanLog) (sliceStat, error) {
	var st sliceStat
	for i := 0; i < ingestPassesPerSlice; i++ {
		ps, err := w.rig.pass(w.corpus, tr)
		if err != nil {
			return sliceStat{}, err
		}
		w.passes++
		for n := range ps.appended {
			w.appended[n] += ps.appended[n]
			w.committed[n] += ps.commitOK[n]
		}
		w.appendUS = append(w.appendUS, ps.appendUS...)
		w.observe = append(w.observe, ps.observe...)
		w.observeDL = append(w.observeDL, ps.observeDL...)
		if tr != nil {
			w.latMS = append(w.latMS, ps.lat...)
		}
		w.catchup = append(w.catchup, ps.catchup.Seconds())
		w.maxLag = max(w.maxLag, ps.maxLag)
		st.ops += ps.ops
		st.wall += ps.wall
		st.cpu += ps.cpu
		st.lat = append(st.lat, ps.lat...)
	}
	st.ttq = st.lat
	return st, nil
}

func (w *ingest) finish(m metricSet, _ *spanLog) (int, error) {
	fwdBatches := w.rig.edgeSum("honeynet_fleet_forward_batches_total")
	if err := w.rig.close(); err != nil {
		return 0, err
	}
	wrong := 0
	total := 0
	for n := range w.appended {
		total += w.appended[n]
		if w.committed[n] != w.appended[n] {
			wrong += abs(w.appended[n] - w.committed[n])
		}
		// Dense per-node sequences: the sealed shard's next sequence is
		// exactly the number of records its edge appended.
		st, err := store.Open(store.ShardDir(w.rig.coll.dir, w.rig.edges[n].node), store.Options{ReadOnly: true})
		if err != nil {
			return 0, fmt.Errorf("reopen shard: %w", err)
		}
		if st.NextSeq() != uint64(w.appended[n]) || st.Len() != w.appended[n] {
			wrong++
		}
		if err := st.Close(); err != nil {
			return 0, err
		}
	}
	m["simulate.run_s"] = w.corpus.simS
	m["fleet.forward_batches"] = fwdBatches
	m["fleet.redelivered"] = w.rig.edgeSum("honeynet_fleet_forward_redelivered_total")
	m["fleet.max_lag_recs"] = float64(w.maxLag)
	m["fleet.catchup_s"] = median(w.catchup)
	m["fleet.commit_lag_p50_ms"] = median(w.latMS)
	m["fleet.commit_lag_p99_ms"] = percentile(w.latMS, 99)
	m["fleet.ttq_p99_ms"] = percentile(w.latMS, 99)
	if len(w.appendUS) > 0 {
		m["store.append_p50_us"] = median(w.appendUS)
		m["store.append_p99_us"] = percentile(w.appendUS, 99)
		m["live.observe_p50_us"] = median(w.observe)
		m["live.observe_p99_us"] = percentile(w.observe, 99)
		m["live.observe_dl_p50_us"] = median(w.observeDL)
	}
	if err := w.rig.coll.collectorMetrics(m, total); err != nil {
		return 0, err
	}
	// The edges' pipelines see what a daemon's would; the collector's
	// sees the fleet. Report the edge view, where Observe sits on the
	// append path.
	liveMetrics(m, w.rig.edges[0].live, w.rig.edges[0].reg.Snapshot())
	if m["fleet.redelivered"] != 0 || m["fleet.duplicates"] != 0 {
		wrong++
	}
	return wrong, nil
}

func (w *ingest) probes(m metricSet) {
	recordProbes(m, w.corpus.sample(), filepath.Join(w.dir, "probe"))
}

func (w *ingest) close() error { return w.rig.close() }

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
