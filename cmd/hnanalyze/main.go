// Command hnanalyze reproduces every table and figure of the paper's
// evaluation: it simulates the 33-month dataset (or a shorter window)
// and prints one text table per experiment.
//
// Usage:
//
//	hnanalyze [-scale 2000] [-seed 42] [-k 90] [-sample 2000] [-months 33] [-fig all] [-csv] [-in dataset.jsonl[.gz]] [-store DIR] [-where PRED] [-workers N] [-timings]
//
// -fig selects one entry of internal/core's figure table (-h lists the
// selectors); a single figure is a verbatim section of -fig all.
//
// -store opens the directory read-only and streams its v3 (columnar)
// segments in exact global append order; output is byte-identical to
// -in over the same records, whatever -workers value is used. A store
// that still lists a legacy v1 or v2 segment fails to open with
// store.ErrLegacySegment: one read-write open, such as a daemon start
// (honeypotd -store DIR, or hncollect for a fleet), migrates it to v3
// (README: "Segments are v3"). A fleet directory written by hncollect
// (node-<id>/ shards) streams the same way.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"honeynet"
	"honeynet/internal/botnet"
	"honeynet/internal/core"
	"honeynet/internal/obs"
	"honeynet/internal/query"
	"honeynet/internal/simulate"
)

func main() {
	var (
		scale    = flag.Float64("scale", 2000, "scale divisor applied to paper-scale session rates")
		seed     = flag.Int64("seed", 42, "deterministic RNG seed")
		k        = flag.Int("k", 90, "cluster count for the section 6 pipeline")
		sample   = flag.Int("sample", 2000, "max distinct command texts to cluster")
		months   = flag.Int("months", 0, "simulate only the first N months (0 = full window)")
		fig      = flag.String("fig", "all", "which figure/table to print: "+strings.Join(core.Selectors(), ", "))
		in       = flag.String("in", "", "analyze an existing hnsim JSONL dataset (plain or .gz) instead of simulating (pass the -seed hnsim used so AS attribution matches)")
		storeDir = flag.String("store", "", "analyze a month-partitioned session store directory (hnsim -store / honeypotd -store) instead of simulating")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		workers  = flag.Int("workers", 0, "worker goroutines for simulation and analysis (0 = GOMAXPROCS; output is identical for any value; 1 = serial)")
		timings  = flag.Bool("timings", false, "print a per-phase timing breakdown to stderr after the run (tables on stdout are unaffected)")
		where    = flag.String("where", "", "hnquery predicate pre-filtering the sessions every figure sees, e.g. \"proto = 'ssh' AND cmd ~ /mdrfckr/\" (see README: Querying the store)")
	)
	flag.Parse()

	// -where compiles through the hnquery planner before any data is
	// simulated or loaded, so a typo fails in milliseconds, with a
	// position, not after a multi-second dataset build.
	var pre func(*honeynet.Record) bool
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
		p, err = load(*in, *storeDir, honeynet.WithSeed(*seed), honeynet.WithWorkers(*workers),
			honeynet.WithObserver(tracer))
		if err == nil && len(p.MissingJoins) > 0 {
			fmt.Fprintf(os.Stderr, "hnanalyze: warning: dataset loaded without %v, which only a simulation populates — Figures 5 and 6 have no family labels, and section 7's \"storage IPs in abuse feeds\" and section 9's Killnet and compromised-host rows are zero (Figures 7, 8 and 17 match the simulation at the -seed hnsim used)\n",
				p.MissingJoins)
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
	if pre != nil {
		total := len(p.World.Records)
		p = narrow(p, pre)
		fmt.Fprintf(os.Stderr, "hnanalyze: -where kept %d of %d sessions\n", len(p.World.Records), total)
	}
	fmt.Fprintf(os.Stderr, "hnanalyze: dataset ready in %v (%d sessions)\n",
		time.Since(start).Round(time.Millisecond), len(p.World.Records))

	ccfg := honeynet.ClusterConfig{K: *k, SampleSize: *sample, Seed: *seed, Workers: *workers}
	sp := tracer.Span("analyze")
	err = p.Run(os.Stdout, *fig, ccfg, *csv)
	sp.End()
	if err != nil {
		log.Fatalf("hnanalyze: %v", err)
	}
	if tracer != nil {
		fmt.Fprintln(os.Stderr)
		tracer.WriteTable(os.Stderr)
	}
}

// narrow builds a new pipeline over the sessions of p, simulated or
// loaded, that pre accepts, through core's one constructor with p's
// databases and settings, so every figure sees only those and p is
// left as it was.
func narrow(p *core.Pipeline, pre func(*honeynet.Record) bool) *core.Pipeline {
	var kept []*honeynet.Record
	for _, r := range p.World.Records {
		if pre(r) {
			kept = append(kept, r)
		}
	}
	return core.FromRecords(kept, p.World)
}

// load opens -in (JSONL, plain or gzip) or -store (a store or fleet
// directory) through the library's two openers.
func load(in, storeDir string, opts ...honeynet.Option) (*core.Pipeline, error) {
	if storeDir != "" {
		return honeynet.Open(storeDir, opts...)
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return honeynet.Load(f, opts...)
}
