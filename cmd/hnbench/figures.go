package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"path/filepath"
	"runtime"
	"time"

	"honeynet"
	"honeynet/internal/analysis"
	"honeynet/internal/core"
	"honeynet/internal/obs"
)

// figuresConfig is hnanalyze's -k, -sample defaults; the seed is fixed
// so that the run's --seed varies the corpus and nothing else.
var figuresConfig = honeynet.ClusterConfig{K: 90, SampleSize: 2000, Seed: 1}

// figures is the figures_batch workload: an op is what
// `hnanalyze -store DIR -fig all` does — open the fleet directory,
// stream it into the analysis pipeline, render every figure.
type figures struct {
	cfg    config
	dir    string
	fleet  string
	corpus *corpus
	want   [sha256.Size]byte // hash of the reference rendering

	reps, wrong  int
	loadS, runS  []float64
	phases       map[string][]float64 // tracer phase -> seconds per traced rep
	pairs, cells int64
	saved        int64
	tracedReps   int
}

func newFigures(cfg config) *figures { return &figures{cfg: cfg, phases: map[string][]float64{}} }

func (w *figures) p1Slices() int { return 3 }

func (w *figures) setup(dir string) error {
	var err error
	if w.corpus, err = buildCorpus(w.cfg); err != nil {
		return err
	}
	w.dir = dir
	if w.fleet, err = buildFleetDir(dir, w.corpus); err != nil {
		return err
	}
	if _, err := w.slice(nil); err != nil { // warm-up
		return fmt.Errorf("warm-up: %w", err)
	}
	w.reps, w.loadS, w.runS = 0, nil, nil
	return nil
}

// reference renders the figures straight from the in-memory corpus, in
// the order the fleet directory streams it, with no store in between.
func (w *figures) reference() ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	p := core.FromRecords(w.corpus.streamOrder(), nil)
	p.World.Workers = maxProcs
	h := sha256.New()
	if err := p.RunAll(h, figuresConfig); err != nil {
		return sum, fmt.Errorf("reference rendering: %w", err)
	}
	h.Sum(sum[:0])
	return sum, nil
}

// rep is one open + render. tracer may be nil.
func (w *figures) rep(tracer *obs.Tracer, out hash.Hash) (load, run time.Duration, err error) {
	t0 := time.Now()
	opts := []honeynet.Option{honeynet.WithWorkers(maxProcs)}
	if tracer != nil {
		opts = append(opts, honeynet.WithObserver(tracer))
	}
	p, err := honeynet.Open(w.fleet, opts...)
	if err != nil {
		return 0, 0, err
	}
	t1 := time.Now()
	err = p.RunAll(out, figuresConfig)
	return t1.Sub(t0), time.Since(t1), err
}

func (w *figures) slice(tr *spanLog) (sliceStat, error) {
	op := w.reps
	w.reps++
	var tracer *obs.Tracer
	if tr != nil {
		tracer = obs.NewTracer()
	}
	h := sha256.New()
	cpu0, start := cpuTime(), time.Now()
	load, run, err := w.rep(tracer, h)
	if err != nil {
		return sliceStat{}, err
	}
	end := time.Now()
	st := sliceStat{ops: 1, wall: end.Sub(start), cpu: cpuTime() - cpu0,
		lat: []float64{ms(end.Sub(start))}, ttq: []float64{ms(load)}}
	w.loadS = append(w.loadS, load.Seconds())
	w.runS = append(w.runS, run.Seconds())

	// The first rendering is checked against the reference once that
	// exists (finish); every later one against the first.
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	if w.want == ([sha256.Size]byte{}) {
		w.want = sum
	} else if sum != w.want {
		w.wrong++
		st.failed = 1
	}
	if tr != nil {
		root := tr.open("analyst.rep", op, -1, start)
		tr.add("core.open", op, root, start, start.Add(load))
		runID := tr.open("core.runall", op, root, start.Add(load))
		tr.close(runID, end)
		tr.close(root, end)
		w.foldPhases(tracer)
	}
	return st, nil
}

// foldPhases keeps the program's own tracer phases of one traced rep.
func (w *figures) foldPhases(t *obs.Tracer) {
	w.tracedReps++
	for _, ph := range t.Phases() {
		w.phases[ph.Name] = append(w.phases[ph.Name], ph.Total.Seconds())
		if ph.Name == "cluster.dld-matrix" {
			w.pairs += ph.Tags["pairs"]
			w.cells += ph.Tags["cells_dp"]
			w.saved += ph.Tags["cells_saved"]
		}
	}
}

func (w *figures) finish(m metricSet, _ *spanLog) (int, error) {
	ref, err := w.reference()
	if err != nil {
		return 0, err
	}
	wrong := 0
	if ref != w.want {
		wrong = w.reps - w.wrong // every rep matched the first, and the first is wrong
	}
	m["simulate.run_s"] = w.corpus.simS
	m["core.load_s"] = median(w.loadS)
	m["core.runall_s"] = median(w.runS)
	if l := median(w.loadS); l > 0 {
		m["store.stream_recs_per_s"] = float64(len(w.corpus.recs)) / l
	}
	for metric, phase := range map[string]string{
		"analysis.tokenize_s":   "cluster.tokenize",
		"textdist.dld_matrix_s": "cluster.dld-matrix",
		"cluster.kmedoids_s":    "cluster.kmedoids",
		"classify.batch_s":      "classify.batch",
	} {
		m[metric] = median(w.phases[phase])
	}
	if n := int64(w.tracedReps); n > 0 {
		m["textdist.dld_pairs"] = float64(w.pairs / n)
		m["textdist.dld_cells"] = float64(w.cells / n)
		if w.cells+w.saved > 0 {
			m["textdist.cells_saved_ratio"] = float64(w.saved) / float64(w.cells+w.saved)
		}
	}
	return wrong, dirMetrics(m, w.fleet, len(w.corpus.recs))
}

// probes opens the directory once more under the program's own tracer
// for the live heap after the load and for the k-sweep of section 6,
// which `-fig all` leaves out.
func (w *figures) probes(m metricSet) {
	tracer := obs.NewTracer()
	p, err := honeynet.Open(w.fleet, honeynet.WithWorkers(maxProcs), honeynet.WithObserver(tracer))
	if err != nil {
		return
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m["core.live_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)
	if err := p.RunAll(sha256.New(), figuresConfig); err != nil {
		return
	}
	if _, err := analysis.SelectK(p.World, []int{10, 20, 40, 60, 90, 120, 150}, 400, 42, figuresConfig); err == nil {
		for _, ph := range tracer.Phases() {
			switch ph.Name {
			case "kselect.sweep":
				m["cluster.ksweep_s"] = ph.Total.Seconds()
			case "cluster.dld-matrix":
				m["analysis.matrix_reuse"] = float64(ph.Tags["reused"])
			}
		}
	}
	recordProbes(m, w.corpus.sample(), filepath.Join(w.dir, "probe"))
}

func (w *figures) close() error { return nil }
