// Command hnbench is the repository's end-to-end benchmark: five named
// workloads that each drive the honeynet in-process, through public
// entry points and with every store, fleet and live option left at the
// daemon default, and report the same six end-to-end metrics plus a
// per-layer budget. See README.md beside this file for why each
// workload exists, how the estimator was sized, and how to read the
// numbers; BENCHMARK.json at the repository root is the contract.
//
// Usage:
//
//	hnbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//	        [--trace-out FILE] [--record FILE]
//	hnbench -compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the run alternates traced and
// untraced slices, runs the layer probes, and the metrics are the
// per-layer ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// maxProcs is pinned so a run means the same thing on a bigger box:
// two closed-loop clients (or workers) on two Ps.
const maxProcs = 2

// runDeadline fails a run that would otherwise hang; the driver allows
// a run 180 s.
var runDeadline = 150 * time.Second

// config is one run's parameters. The fields below the blank line are
// for the smoke test, which needs a small deterministic run; the
// command line never sets them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string

	size    int       // divides every slice's op count (1 = full size)
	slices  int       // > 0: measure exactly this many slices, ignoring seconds
	setups  int       // how many times set-up runs; setup_s is their median
	tmpRoot string    // parent of the run's temp dir ("" = .bench_build)
	log     io.Writer // human-readable report
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	var record string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: wire_scout, wire_longcmd, ingest_fleet, query_mix, figures_batch")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: alternate traced and untraced slices, run the layer probes, report the per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with --trace 1, write the raw spans to this file as JSON")
	flag.StringVar(&record, "record", "", "append this run's result to a result-set file (for -compare)")
	flag.BoolVar(&compare, "compare", false, "compare two result-set files against the bounds: hnbench -compare A.json B.json")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: hnbench -compare A.json B.json")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "hnbench: %v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fatal(2, "hnbench: --trace takes 0 or 1")
	}
	cfg.trace = trace == 1
	cfg.size, cfg.setups, cfg.log = 1, 3, os.Stdout

	// The deadline is enforced from outside the run so that a wedged
	// rig cannot also wedge its own timeout; run removes its temp dir
	// on every return, and the deadline path removes it here.
	type outcome struct {
		res    *result
		slices []sliceStat
		err    error
	}
	tmp := make(chan string, 1)
	done := make(chan outcome, 1)
	go func() {
		res, slices, err := run(cfg, tmp)
		done <- outcome{res, slices, err}
	}()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	var out outcome
	select {
	case out = <-done:
	case sig := <-sigs:
		removeTemp(tmp)
		fatal(130, "hnbench: %s: %v", cfg.workload, sig)
	case <-time.After(runDeadline):
		// Say where the run is stuck before abandoning it.
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		removeTemp(tmp)
		fatal(3, "hnbench: %s: no result after %v; run abandoned", cfg.workload, runDeadline)
	}
	if out.err != nil {
		fatal(1, "hnbench: %s: %v", cfg.workload, out.err)
	}
	if record != "" {
		if err := appendRun(record, cfg, out.res, out.slices); err != nil {
			fatal(1, "hnbench: record: %v", err)
		}
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fatal(1, "hnbench: %v", err)
	}
	fmt.Printf("%s\n", line)
	if !out.res.Correct || out.res.Failed > 0 {
		os.Exit(1)
	}
}

// removeTemp removes the run's temp dir, if the run got as far as
// making one, on the paths that do not return through run.
func removeTemp(tmp <-chan string) {
	select {
	case dir := <-tmp:
		os.RemoveAll(dir)
	default:
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// workload is one named benchmark. The engine in run owns timing,
// slicing and reporting; a workload owns its inputs, its rig and its
// correctness gate.
type workload interface {
	// setup generates the inputs from the seed, builds the rig under
	// dir and runs one warm-up slice.
	setup(dir string) error
	// slice runs one equal-work slice. tr is nil on untraced slices.
	slice(tr *spanLog) (sliceStat, error)
	// finish stops the rig after the measured window, checks that
	// every output was correct and records the workload's counters.
	// It returns how many ops produced a wrong output.
	finish(m metricSet, tr *spanLog) (wrong int, err error)
	// probes pushes the workload's own inputs through single public
	// functions of the layers it exercises (traced runs only).
	probes(m metricSet)
	// close releases everything setup acquired; safe to call twice.
	close() error
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "wire_scout":
		return newWire(cfg, false), nil
	case "wire_longcmd":
		return newWire(cfg, true), nil
	case "ingest_fleet":
		return newIngest(cfg), nil
	case "query_mix":
		return newQueryMix(cfg), nil
	case "figures_batch":
		return newFigures(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// singleThreaded is implemented by the workloads whose job is also
// timed at GOMAXPROCS=1 (proc.ops_per_s_p1); p1Slices is how many
// slices that arm measures.
type singleThreaded interface{ p1Slices() int }

// run executes one workload and returns its result. The temp dir is
// announced on tmp so the deadline path can remove it.
func run(cfg config, tmp chan<- string) (res *result, slices []sliceStat, err error) {
	prev := runtime.GOMAXPROCS(maxProcs)
	defer runtime.GOMAXPROCS(prev)

	parent := cfg.tmpRoot
	if parent == "" {
		parent = ".bench_build"
		if err := os.MkdirAll(parent, 0o755); err != nil {
			return nil, nil, err
		}
	}
	root, err := os.MkdirTemp(parent, "hnbench-")
	if err != nil {
		return nil, nil, err
	}
	if tmp != nil {
		tmp <- root
	}
	defer func() {
		if rerr := os.RemoveAll(root); err == nil && rerr != nil {
			err = fmt.Errorf("remove temp dir: %w", rerr)
		}
	}()

	// Set-up runs several times; setup_s is the median. Only the last
	// rig is measured.
	var w workload
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if w, err = newWorkload(cfg); err != nil {
			return nil, nil, err
		}
		dir := fmt.Sprintf("%s/setup-%d", root, i)
		t0 := time.Now()
		if err := w.setup(dir); err != nil {
			return nil, nil, errors.Join(fmt.Errorf("set-up: %w", err), w.close())
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			if err := w.close(); err != nil {
				return nil, nil, fmt.Errorf("set-up teardown: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
	}
	defer func() {
		if cerr := w.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()

	var tr *spanLog
	if cfg.trace {
		tr = newSpanLog()
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// The measured window: equal-work slices until the time is up. A
	// traced run alternates so both arms see the same interference.
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.slices > 0 {
			if i >= cfg.slices {
				break
			}
		} else if i >= minSlices && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		var str *spanLog
		if cfg.trace && i%2 == 1 {
			str = tr
		}
		_, sys0 := cpuTimes()
		s, err := w.slice(str)
		if err != nil {
			return nil, nil, fmt.Errorf("slice %d: %w", i, err)
		}
		_, sys1 := cpuTimes()
		s.sys, s.traced = sys1-sys0, str != nil
		slices = append(slices, s)
	}
	runtime.ReadMemStats(&ms1)

	m := metricSet{}
	if st, ok := w.(singleThreaded); ok && cfg.trace {
		runtime.GOMAXPROCS(1)
		var p1 []float64
		for i := 0; i < st.p1Slices(); i++ {
			s, err := w.slice(nil)
			if err != nil {
				runtime.GOMAXPROCS(maxProcs)
				return nil, nil, fmt.Errorf("GOMAXPROCS=1 slice: %w", err)
			}
			p1 = append(p1, s.opsPerSec())
		}
		runtime.GOMAXPROCS(maxProcs)
		m["proc.ops_per_s_p1"] = quietMean(p1, true)
	}

	wrong, err := w.finish(m, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("finish: %w", err)
	}
	if cfg.trace {
		w.probes(m)
	}

	res = summarize(cfg, slices, setupS, m, ms0, ms1)
	res.Failed += wrong
	res.Correct = wrong == 0
	report(cfg, slices, setupS, res, tr)
	if cfg.trace && cfg.traceOut != "" {
		if err := tr.writeJSON(cfg.traceOut); err != nil {
			return nil, nil, fmt.Errorf("trace-out: %w", err)
		}
	}
	return res, slices, nil
}

// minSlices keeps the quiet quartile at least one whole slice even when
// the box is so slow that one slice outlasts the window.
const minSlices = 4

// summarize reduces the slices to the declared metrics.
func summarize(cfg config, slices []sliceStat, setupS []float64, m metricSet, ms0, ms1 runtime.MemStats) *result {
	var opsU, opsT []float64 // untraced / traced arms of a traced run
	attempted, failed := 0, 0
	for i := range slices {
		s := &slices[i]
		attempted += s.ops
		failed += s.failed
		if s.traced {
			opsT = append(opsT, s.opsPerSec())
		} else {
			opsU = append(opsU, s.opsPerSec())
		}
	}
	ser := seriesOf(slices)
	m["setup_s"] = median(setupS)
	m["ops_per_s"] = quietMean(ser.opsPerSec, true)
	m["latency_p50_ms"] = quietMean(ser.p50MS, false)
	m["cpu_us_per_op"] = quietMean(ser.cpuPerOp, false)
	m["ttq_p50_ms"] = quietMean(ser.ttqP50MS, false)

	ops := float64(attempted)
	m["proc.peak_rss_mb"] = peakRSSMB()
	m["proc.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	m["proc.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
	m["proc.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	if len(opsT) > 0 && len(opsU) > 0 {
		u, t := quietMean(opsU, true), quietMean(opsT, true)
		m["trace.overhead_pct"] = 100 * (u - t) / u
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	return res
}

// report prints what a person reading the run wants beside the result
// line: the environment, the all-slice spread next to each quiet-
// quartile figure, and on a traced run the span budget.
func report(cfg config, slices []sliceStat, setupS []float64, res *result, tr *spanLog) {
	w := cfg.log
	if w == nil {
		return
	}
	fmt.Fprintf(w, "hnbench: workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d nproc=%d %s slices=%d setups=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, maxProcs, runtime.NumCPU(), runtime.Version(), len(slices), len(setupS))
	fmt.Fprintf(w, "ops_attempted=%d ops_failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)

	ser := seriesOf(slices)
	fmt.Fprintf(w, "%-16s %12s %12s %12s %12s   (per slice)\n", "metric", "quiet", "q1", "median", "q3")
	row := func(name string, vals []float64, higher bool) {
		fmt.Fprintf(w, "%-16s %12.4f %12.4f %12.4f %12.4f\n", name,
			quietMean(vals, higher), percentile(vals, 25), median(vals), percentile(vals, 75))
	}
	row("ops_per_s", ser.opsPerSec, true)
	row("latency_p50_ms", ser.p50MS, false)
	row("cpu_us_per_op", ser.cpuPerOp, false)
	row("ttq_p50_ms", ser.ttqP50MS, false)
	fmt.Fprintf(w, "%-16s %12.4f   (median of %v)\n", "setup_s", median(setupS), setupS)
	fmt.Fprintf(w, "%5s %6s %12s %12s %12s %12s %10s\n", "slice", "traced", "ops_per_s", "p50_ms", "cpu_us/op", "sys_us/op", "wall_s")
	for i := range slices {
		s := &slices[i]
		fmt.Fprintf(w, "%5d %6v %12.2f %12.4f %12.2f %12.2f %10.4f\n", i, s.traced, s.opsPerSec(), median(s.lat), s.cpuPerOp(),
			us(s.sys)/float64(s.ops), s.wall.Seconds())
	}

	if !cfg.trace {
		return
	}
	// The budget: self time by span name. Spans on the clients' own
	// goroutines nest under one root per client and slice, so their
	// self times add up to clients x traced wall time; spans taken
	// inside the program's hooks run on its goroutines and are listed
	// as off-path busy time.
	aggs := tr.aggregate()
	var rootTotal time.Duration
	for _, a := range aggs {
		if a.Root && !offPath(a.Name) {
			rootTotal += a.Total
		}
	}
	fmt.Fprintf(w, "\n%-28s %10s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "share")
	var onPath time.Duration
	for _, a := range aggs {
		share := "off-path"
		if !offPath(a.Name) {
			onPath += a.Self
			if rootTotal > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(a.Self)/float64(rootTotal))
			}
		}
		fmt.Fprintf(w, "%-28s %10d %12.2f %12.2f %8s\n", a.Name, a.Count, ms(a.Total), ms(a.Self), share)
	}
	if rootTotal > 0 {
		fmt.Fprintf(w, "on-path self times sum to %.1f%% of traced client wall time (%.2f ms)\n",
			100*float64(onPath)/float64(rootTotal), ms(rootTotal))
	}
}
