// Package honeynet reproduces the measurement system of "Attacks Come to
// Those Who Wait: Long-Term Observations in an SSH Honeynet" (IMC 2025):
// a Cowrie-style medium-interaction SSH/Telnet honeypot built on a
// from-scratch SSH stack, a deterministic 33-month attacker simulation
// standing in for the unobtainable production traces, and one analyzer
// per table and figure of the paper's evaluation.
//
// This package is the facade. The building blocks live under internal/:
//
//   - sshwire, sshd, sshclient: SSH transport (RFC 4253), server, client
//   - telnetd: the Telnet endpoint
//   - shell, vfs: the emulated Unix shell and virtual filesystem
//   - honeypot: one network-facing honeypot node
//   - session: the session record model
//   - botnet, simulate, collector: the attacker models, the dataset
//     generator and the record set it returns
//   - classify, textdist, cluster: Table 1 signatures, token DLD, K-medoids
//   - asdb, abusedb: the AS registry and abuse-feed substrates
//   - analysis, report: per-figure analyzers and table rendering
//   - obs: the metrics registry, exposition, and phase tracer
//   - guard, sessionlog: long-run connection guardrails and the
//     JSONL record stream a node without a store writes to stdout
//   - store: the embedded month-partitioned session store with a
//     streaming query engine, and a node's one durable log (see [Open]
//     and ServeConfig.StorePath)
//
// Quick start:
//
//	p, err := honeynet.Simulate(honeynet.WithScale(2000), honeynet.WithSeed(42))
//	if err != nil { ... }
//	err = p.RunAll(os.Stdout, analysis.ClusterConfig{K: 90})
//
// To run a live honeypot node, see [Serve]; to run the fleet collector
// its nodes forward to, see [Collect].
package honeynet

import (
	"io"

	"honeynet/internal/analysis"
	"honeynet/internal/core"
	"honeynet/internal/live"
	"honeynet/internal/obs"
	"honeynet/internal/query"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
	"honeynet/internal/store"
)

// Pipeline is a dataset plus every analyzer input; see internal/core.
type Pipeline = core.Pipeline

// Record is one honeypot session as stored in the honeynet database.
type Record = session.Record

// ClusterConfig re-exports the section 6 clustering parameters.
type ClusterConfig = analysis.ClusterConfig

// Tracer aggregates named phase timings; pass one via WithObserver to
// time a run the way hnanalyze -timings does.
type Tracer = obs.Tracer

// NewTracer returns an empty phase tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// Registry is a metrics registry with Prometheus text exposition; see
// internal/obs. ServeConfig accepts one so several components can share
// a scrape endpoint.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// LivePipeline is the streaming analytics engine Serve and Collect run
// on the ingest path: online classification with cumulative
// per-category counts. See internal/live.
type LivePipeline = live.Pipeline

// LiveSnapshot is the /live JSON document (LivePipeline.Snapshot).
type LiveSnapshot = live.Snapshot

// config collects what the functional options tune.
type config struct {
	scale    float64
	seed     int64
	workers  int
	tracer   *obs.Tracer
	storeDir string
}

// Option tunes Simulate, Load and Open. Options are applied in order; the
// zero-config defaults match the paper-scale run divided by 1000.
type Option interface {
	apply(*config)
}

// configOf applies opts in order to the zero config.
func configOf(opts []Option) *config {
	c := &config{}
	for _, o := range opts {
		o.apply(c)
	}
	return c
}

type optionFunc func(*config)

func (f optionFunc) apply(c *config) { f(c) }

// WithScale divides paper-scale session volumes (default 1000: the
// 546M-session window becomes ~546k sessions).
func WithScale(scale float64) Option {
	return optionFunc(func(c *config) { c.scale = scale })
}

// WithSeed fixes the run: the same seed produces a byte-identical
// dataset for any worker count. On Load and Open it rebuilds the AS
// registry the simulation with that seed used.
func WithSeed(seed int64) Option {
	return optionFunc(func(c *config) { c.seed = seed })
}

// WithWorkers caps the goroutines used for simulation and analysis
// (<= 0 means runtime.GOMAXPROCS(0), 1 is fully serial). Results are
// identical for every value.
func WithWorkers(n int) Option {
	return optionFunc(func(c *config) { c.workers = n })
}

// WithObserver attaches a phase tracer: simulation and analysis record
// per-phase wall time on it. The tracer only observes the clock —
// results are identical with or without one.
func WithObserver(t *Tracer) Option {
	return optionFunc(func(c *config) { c.tracer = t })
}

// WithStore persists the simulated dataset into the embedded
// month-partitioned session store at dir (see internal/store): sealed,
// compressed, indexed partitions that Open, hnanalyze -store, and a
// live honeypotd -store all share. Appends accumulate, so point each
// simulation at a fresh directory unless accumulation is intended.
func WithStore(dir string) Option {
	return optionFunc(func(c *config) { c.storeDir = dir })
}

// Simulate generates the synthetic 33-month dataset and returns the
// analysis pipeline over it.
func Simulate(opts ...Option) (*Pipeline, error) {
	c := configOf(opts)
	p, err := core.Simulate(simulate.Config{
		Scale:   c.scale,
		Seed:    c.seed,
		Workers: c.workers,
		Tracer:  c.tracer,
	})
	if err != nil {
		return nil, err
	}
	if c.storeDir != "" {
		if err := persistStore(c.storeDir, p.World.Records); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// persistStore seals records into the session store at dir.
func persistStore(dir string, recs []*session.Record) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// world is the analysis world a loaded dataset runs in: the worker and
// tracer settings, and the AS registry the dataset's seed
// rebuilds, which attributes every client and storage IP to the AS the
// simulation drew it from.
func (c *config) world() *analysis.World {
	return &analysis.World{
		Registry: simulate.Registry(c.seed),
		Workers:  c.workers,
		Tracer:   c.tracer,
	}
}

// Load builds a pipeline over records previously written as JSONL,
// plain or gzip (for example by cmd/hnsim or a live cmd/honeypotd),
// streaming them in one at a time. WithSeed, WithWorkers and WithObserver
// apply: pass the seed the dataset was simulated
// with and WithSeed rebuilds the simulation's AS registry, so Figures 7,
// 8 and 17 match the simulation's; the default seed 0 suits captured
// data. The abuse feeds exist only inside a simulation: without them
// Figures 5 and 6 carry no family labels, section 7's "storage IPs in
// abuse feeds" row is zero, and so are section 9's Killnet and
// compromised-host rows. The returned Pipeline's MissingJoins field
// names the substituted databases.
func Load(r io.Reader, opts ...Option) (*Pipeline, error) {
	return core.FromRecordCursor(session.NewReader(r), configOf(opts).world())
}

// Open builds a pipeline over a session store directory previously
// written by Simulate(WithStore), cmd/hnsim -store, or a live
// cmd/honeypotd -store. Records stream out of the sealed segments in
// exact append order, one at a time, into the pipeline's record set,
// with no second copy of the dataset, and figure output is
// byte-identical to the equivalent Load over JSONL. The same options
// apply as for Load, and the same abuse feeds are missing (see
// Pipeline.MissingJoins).
//
// A fleet directory written by cmd/hncollect (per-node shards under
// node-<id>/) opens transparently: shards are scatter-gathered and the
// records merged into the fleet's canonical (time, node, seq) order, so
// the same analyses run unchanged over a whole fleet.
func Open(dir string, opts ...Option) (*Pipeline, error) {
	c := configOf(opts)
	src, err := store.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	cur := src.Stream()
	defer cur.Close()
	return core.FromRecordCursor(cur, c.world())
}

// QueryResult is a finished hnquery-DSL statement: tabular rows for
// projections and aggregates, full records for SELECT *, the plan
// statistics, and — for EXPLAIN statements — the rendered plan.
type QueryResult = query.Result

// Query runs one hnquery-DSL statement against a session store (or
// fleet) directory without materializing the dataset:
//
//	res, err := honeynet.Query(dir,
//	    `SELECT month, count(*) WHERE proto = 'ssh' GROUP BY month ORDER BY month`)
//
// The statement compiles to a structured store.Query with full
// predicate pushdown: time predicates prune via sealed segment bounds,
// `ip =` predicates route through the per-segment Bloom filters, and
// kind/protocol-only aggregates answer from sealed metadata with zero
// block reads. Prefix the statement with EXPLAIN to get the chosen
// plan and its pruning statistics in QueryResult.Explain. A fleet
// directory scatter-gathers across its per-node shards transparently.
func Query(dir, stmt string) (*QueryResult, error) {
	src, err := store.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return query.Run(src, stmt)
}
