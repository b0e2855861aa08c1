package honeynet

import (
	"errors"
	"fmt"
	"net/http"

	"honeynet/internal/fleet"
	"honeynet/internal/live"
	"honeynet/internal/obs"
)

// CollectConfig describes the fleet collector honeypotd nodes forward
// to (ServeConfig.ForwardAddr) — everything cmd/hncollect exposes as
// flags, as a library API.
type CollectConfig struct {
	// Dir is the fleet directory: one store shard per node under
	// node-<id>/, queryable by hnquery, hnanalyze -store and
	// honeynet.Open. Required.
	Dir string
	// ListenAddr is where edges connect (default ":7070").
	ListenAddr string
	// AdminAddr, if non-empty, serves /metrics, /healthz, /debug/vars,
	// /live and (unless built with -tags nopprof) /debug/pprof on this
	// address.
	AdminAddr string
	// LiveOff disables the streaming analytics pipeline. By default
	// every committed record is classified and counted online,
	// fleet-wide; see Collector.Live.
	LiveOff bool
}

// Defaults fills every unset field that has a default. Collect calls
// it; cmd/hncollect calls it before registering flags, so its -h shows
// the values spelled here.
func (c *CollectConfig) Defaults() {
	if c.ListenAddr == "" {
		c.ListenAddr = ":7070"
	}
}

// Collector is a running fleet collector started by Collect.
type Collector struct {
	srv   *fleet.Server // nil until the shards are open
	livep *live.Pipeline
	reg   *obs.Registry

	addr, adminAddr string
	adminSrv        *http.Server
}

// Collect starts a fleet collector: every shard a previous run left
// under Dir reopened, edges accepted on ListenAddr, and the admin
// endpoint (if configured) serving. An edge's batch is acknowledged
// only once the shard holding it is fsynced, so an acked record
// survives a collector crash; that is not configurable. Callers own
// shutdown: Close seals every shard.
func Collect(cfg CollectConfig) (*Collector, error) {
	cfg.Defaults()
	if cfg.Dir == "" {
		return nil, errors.New("honeynet: CollectConfig needs Dir")
	}

	// Each component is assigned to c as it is built, so every failure
	// below tears down exactly what exists through the one Close.
	c := &Collector{reg: obs.NewRegistry()}
	fail := func(err error) (*Collector, error) { return nil, errors.Join(err, c.Close()) }
	var liveRoutes []obs.Route
	c.livep, liveRoutes = startLive(cfg.LiveOff, c.reg)
	opts := fleet.ServerOptions{SyncAck: true}
	if c.livep != nil {
		opts.OnRecord = func(_ string, r *Record) { c.livep.Observe(r) }
	}
	var err error
	if c.srv, err = fleet.NewServer(cfg.Dir, opts); err != nil {
		return fail(fmt.Errorf("honeynet: collect: %w", err))
	}
	c.srv.Register(c.reg)

	addr, err := c.srv.Listen(cfg.ListenAddr)
	if err != nil {
		return fail(fmt.Errorf("honeynet: listen: %w", err))
	}
	c.addr = addr.String()
	if cfg.AdminAddr != "" {
		c.adminSrv, err = obs.ServeAdmin(cfg.AdminAddr, c.reg, nil, liveRoutes...)
		if err != nil {
			return fail(fmt.Errorf("honeynet: admin: %w", err))
		}
		c.adminAddr = c.adminSrv.Addr
	}
	return c, nil
}

// Addr returns the bound edge listen address.
func (c *Collector) Addr() string { return c.addr }

// AdminAddr returns the bound admin address ("" when disabled).
func (c *Collector) AdminAddr() string { return c.adminAddr }

// Registry returns the metrics registry the collector and its live
// pipeline report to.
func (c *Collector) Registry() *Registry { return c.reg }

// Live returns the fleet-wide streaming analytics pipeline, or nil when
// LiveOff.
func (c *Collector) Live() *live.Pipeline { return c.livep }

// Close stops the admin endpoint, drops edge connections, and seals and
// closes every shard, so the fleet directory is immediately queryable.
// Closing twice is a no-op.
func (c *Collector) Close() error {
	var errs []error
	if c.adminSrv != nil {
		errs = append(errs, c.adminSrv.Close())
		c.adminSrv = nil
	}
	if c.srv != nil {
		errs = append(errs, c.srv.Close())
	}
	return errors.Join(errs...)
}
