// Command hnanalyze reproduces every table and figure of the paper's
// evaluation: it simulates the 33-month dataset (or a shorter window)
// and prints one text table per experiment.
//
// Usage:
//
//	hnanalyze [-scale 2000] [-seed 42] [-k 90] [-sample 2000] [-months 33] [-fig all] [-csv] [-in dataset.jsonl[.gz]] [-store DIR] [-workers N] [-cache DIR]
//
// -fig selects a single output: stats, 1, 2, 3a, 3b, 4a, 4b, 5, 6, 7, 8,
// 9, 10, 11, 12, 13, 14, 16, 17, table1, storage, mdrfckr, appc, kselect,
// all.
//
// -store reads v1 (DEFLATE), v2 (LZ), and v3 (columnar) segments
// transparently — the codec and layout each segment was sealed with
// are recorded in the store's manifest — streaming the records in
// exact global append order with peak memory bounded by the open
// blocks, and output is byte-identical to -in over the same records,
// whatever format mix or -workers value is used.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"honeynet/internal/analysis"
	"honeynet/internal/asdb"
	"honeynet/internal/botnet"
	"honeynet/internal/collector"
	"honeynet/internal/core"
	"honeynet/internal/obs"
	"honeynet/internal/query"
	"honeynet/internal/report"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
	"honeynet/internal/store"
)

func main() {
	var (
		scale    = flag.Float64("scale", 2000, "scale divisor applied to paper-scale session rates")
		seed     = flag.Int64("seed", 42, "deterministic RNG seed")
		k        = flag.Int("k", 90, "cluster count for the section 6 pipeline")
		sample   = flag.Int("sample", 2000, "max distinct command texts to cluster")
		months   = flag.Int("months", 0, "simulate only the first N months (0 = full window)")
		fig      = flag.String("fig", "all", "which figure/table to print")
		in       = flag.String("in", "", "analyze an existing hnsim JSONL dataset (plain or .gz) instead of simulating (pass the -seed hnsim used so AS attribution matches)")
		storeDir = flag.String("store", "", "analyze a month-partitioned session store directory (hnsim -store / honeypotd -store) instead of simulating")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text (single-figure mode)")
		workers  = flag.Int("workers", runtime.NumCPU(), "worker goroutines for simulation and analysis (output is identical for any value; 1 = serial)")
		timings  = flag.Bool("timings", false, "print a per-phase timing breakdown to stderr after the run (tables on stdout are unaffected)")
		cache    = flag.String("cache", "", "directory for the on-disk DLD matrix cache (content-hash keyed; results are identical with or without it)")
		where    = flag.String("where", "", "hnquery predicate pre-filtering the sessions every figure sees, e.g. \"proto = 'ssh' AND cmd ~ /mdrfckr/\" (see README: Querying the store)")
	)
	flag.Parse()

	// -where compiles through the hnquery planner before any data is
	// simulated or loaded, so a typo fails in milliseconds, with a
	// position, not after a multi-second dataset build.
	var pre store.Filter
	if *where != "" {
		var err error
		if pre, err = query.CompileFilter(*where); err != nil {
			log.Fatalf("hnanalyze: -where: %v", err)
		}
	}

	// The tracer only observes the clock; tables on stdout stay
	// byte-identical with or without -timings.
	var tracer *obs.Tracer
	if *timings {
		tracer = obs.NewTracer()
	}

	if *in != "" && *storeDir != "" {
		log.Fatal("hnanalyze: -in and -store are mutually exclusive")
	}

	start := time.Now()
	var p *core.Pipeline
	var err error
	if *in != "" || *storeDir != "" {
		if *in != "" {
			p, err = loadDataset(*in, *seed)
		} else {
			p, err = loadStore(*storeDir, *seed)
		}
		if p != nil {
			p.World.Workers = *workers
			p.World.Tracer = tracer
			if len(p.MissingJoins) > 0 {
				fmt.Fprintf(os.Stderr, "hnanalyze: warning: dataset loaded without %v — figures 7, 8, 9, 17, and mdrfckr join on feeds only a simulation populates and will be empty (pass the -seed hnsim used for AS parity)\n",
					p.MissingJoins)
			}
		}
	} else {
		cfg := simulate.Config{Scale: *scale, Seed: *seed, Workers: *workers, Tracer: tracer}
		if *months > 0 {
			cfg.End = botnet.WindowStart.AddDate(0, *months, 0)
		}
		p, err = core.Simulate(cfg)
	}
	if err != nil {
		log.Fatalf("hnanalyze: %v", err)
	}
	p.World.MatrixCache = *cache
	if pre != nil {
		total := p.World.Store.Len()
		kept := collector.NewStore()
		for _, r := range p.World.Store.All() {
			if pre(r) {
				kept.Add(r)
			}
		}
		p.World.Store = kept
		fmt.Fprintf(os.Stderr, "hnanalyze: -where kept %d of %d sessions\n", kept.Len(), total)
	}
	fmt.Fprintf(os.Stderr, "hnanalyze: dataset ready in %v (%d sessions)\n",
		time.Since(start).Round(time.Millisecond), p.World.Store.Len())

	ccfg := analysis.ClusterConfig{K: *k, SampleSize: *sample, Seed: *seed, Workers: *workers}
	sp := tracer.Span("analyze")
	if *fig == "all" {
		err = p.RunAll(os.Stdout, ccfg)
	} else {
		err = runOne(p, *fig, ccfg, *csv)
	}
	sp.End()
	if err != nil {
		log.Fatalf("hnanalyze: %v", err)
	}
	if tracer != nil {
		fmt.Fprintln(os.Stderr)
		tracer.WriteTable(os.Stderr)
	}
}

// emit prints a table as text or CSV.
func emit(t *report.Table, csv bool) {
	if csv {
		fmt.Print(t.CSV())
		return
	}
	fmt.Println(t)
}

// loadDataset reads a JSONL dataset written by cmd/hnsim. Rebuilding
// the AS registry from the same seed hnsim used restores identical
// (IP, time) -> AS attribution, since both allocation and lookup are
// deterministic.
func loadDataset(path string, seed int64) (*core.Pipeline, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := session.ReadAll(f)
	if err != nil {
		return nil, err
	}
	w := &analysis.World{Registry: asdb.NewRegistry(seed+1, 2000)}
	return core.FromRecords(recs, w), nil
}

// loadStore streams a month-partitioned session store (written by
// hnsim -store or a live honeypotd -store) into the pipeline in exact
// global append order, one record at a time — peak memory is the
// collector's working set plus the open scan blocks, not a second full
// copy of the dataset. The figure output is byte-identical to analyzing
// the equivalent JSONL via -in. A fleet directory written by hncollect
// (node-<id>/ shards) streams transparently, one month resident at a
// time, merged into the fleet's canonical (time, node, seq) order.
func loadStore(dir string, seed int64) (*core.Pipeline, error) {
	src, err := store.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	cur := src.Stream()
	defer cur.Close()
	return core.FromRecordCursor(cur, &analysis.World{Registry: asdb.NewRegistry(seed+1, 2000)})
}

func runOne(p *core.Pipeline, fig string, ccfg analysis.ClusterConfig, csv bool) error {
	w := p.World
	switch fig {
	case "stats":
		emit(analysis.Stats(w).Table(), csv)
	case "1":
		emit(analysis.Fig1Table(analysis.Fig1(w)), csv)
	case "2":
		emit(analysis.SharesTable("Figure 2: non-state-changing sessions", analysis.Fig2(w), 8), csv)
	case "3a":
		emit(analysis.SharesTable("Figure 3a: file add/modify/delete without exec", analysis.Fig3a(w), 8), csv)
	case "3b":
		emit(analysis.SharesTable("Figure 3b: file-execution sessions", analysis.Fig3b(w), 8), csv)
	case "4a", "4b":
		f4 := analysis.Fig4(w)
		if fig == "4a" {
			emit(analysis.SharesTable("Figure 4a: exec sessions, file exists", f4.Exists, 8), csv)
		} else {
			emit(analysis.SharesTable("Figure 4b: exec sessions, file missing", f4.Missing, 8), csv)
		}
	case "5", "6":
		cres, err := analysis.RunClustering(w, ccfg)
		if err != nil {
			return err
		}
		if fig == "5" {
			emit(cres.Fig5Table(0), csv)
		} else {
			emit(analysis.Fig6Table(cres.Fig6(5)), csv)
		}
	case "7":
		emit(analysis.Fig7(w).Table(), csv)
	case "8":
		emit(analysis.Fig8Table(analysis.Fig8(w)), csv)
	case "9":
		for _, rc := range []struct {
			name string
			days int
		}{{"1-week", 7}, {"4-week", 28}, {"1-year", 365}, {"all", 0}} {
			emit(analysis.Fig9Table("Figure 9 ("+rc.name+" recall)", analysis.Fig9(w, rc.days)), csv)
		}
	case "10":
		emit(analysis.Fig10(w, 5).Table(), csv)
	case "11":
		emit(analysis.Fig11(w).Table(), csv)
	case "12":
		emit(analysis.Fig12Table(analysis.Fig12(w)), csv)
	case "13", "mdrfckr":
		cs := analysis.Mdrfckr(w, botnet.MdrfckrKeyHash())
		if fig == "13" {
			emit(cs.Fig13Table(), csv)
		} else {
			emit(cs.Table(), csv)
		}
	case "14":
		emit(analysis.Fig14(w, 10).Table(), csv)
	case "16":
		emit(analysis.Fig16Table(analysis.Fig16(w)), csv)
	case "17":
		emit(analysis.Fig17Table(analysis.Fig17(w)), csv)
	case "events":
		emit(analysis.EventsTable(analysis.EventCorrelation(w)), csv)
	case "kselect":
		sel, err := analysis.SelectK(w, []int{10, 20, 40, 60, 90, 120, 150}, 400, 42, ccfg)
		if err != nil {
			return err
		}
		emit(sel.Table(), csv)
		fmt.Printf("elbow k = %d, best silhouette k = %d\n", sel.ElbowK, sel.BestSilhouetteK)
	case "table1":
		emit(analysis.Table1(w).Table(), csv)
	case "storage":
		emit(analysis.Storage(w).Table(), csv)
	case "appc":
		emit(analysis.CurlProxy(w).Table(), csv)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}
