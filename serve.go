package honeynet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"honeynet/internal/fleet"
	"honeynet/internal/guard"
	"honeynet/internal/honeypot"
	"honeynet/internal/live"
	"honeynet/internal/obs"
	"honeynet/internal/sessionlog"
	"honeynet/internal/simulate"
	"honeynet/internal/store"
)

// ServeConfig describes one live, network-facing honeypot node with its
// long-run guardrails, session store, and admin endpoint —
// everything cmd/honeypotd exposes as flags, as a library API.
type ServeConfig struct {
	// SSHAddr is the SSH listen address (default ":2222").
	SSHAddr string
	// TelnetAddr is the Telnet listen address; empty disables Telnet.
	TelnetAddr string
	// AdminAddr, if non-empty, serves /metrics, /healthz, /debug/vars,
	// and (unless built with -tags nopprof) /debug/pprof on this address.
	AdminAddr string

	// ID is the node id stamped on records (default "hp-1").
	ID string
	// Hostname is the fake hostname the emulated shell presents
	// (default "svr04").
	Hostname string
	// Timeout is the hard session deadline (default the paper's 3 min).
	Timeout time.Duration
	// Persistent retains each client's filesystem across connections.
	Persistent bool

	// MaxConns caps concurrent connections globally; the oldest
	// connection is shed at the cap (0 = unlimited).
	MaxConns int
	// MaxConnsPerIP caps concurrent connections per source IP
	// (0 = unlimited).
	MaxConnsPerIP int
	// Rate is the per-IP admission rate spec, e.g. "5/s", "300/m"
	// (empty = unlimited).
	Rate string
	// DownloadBudget caps per-IP emulated fetches per minute
	// (0 = unlimited).
	DownloadBudget int

	// LogOutput, if set, receives every record as one JSON line the
	// moment its session ends (honeypotd's stdout without -store). It
	// is a stream, not a durable log: a failed write is counted in
	// honeynet_node_sink_errors_total and the record is not retried.
	// Serve needs LogOutput or StorePath.
	LogOutput io.Writer
	// StorePath, when non-empty, opens the embedded month-partitioned
	// session store at that directory and appends every record to it:
	// the node's one durable log (crash-safe WAL, sealed segments).
	// Drain seals the store so the partitions are immediately
	// queryable by hnquery, hnanalyze -store and honeynet.Open.
	StorePath string

	// ForwardAddr, when non-empty, streams every stored record to the
	// fleet collector at that address (requires StorePath: the local
	// store is the durable send queue, and forwarding survives
	// restarts by resuming from the collector's cursor).
	ForwardAddr string
	// ForwardNodeID identifies this node to the collector; the
	// collector writes this node's shard under node-<id>. Defaults to
	// ID. Restricted to [A-Za-z0-9._-].
	ForwardNodeID string
	// ForwardMaxDelay bounds how long an appended record may wait for
	// a batch to fill before being forwarded anyway (0 = 2ms). No
	// program sets it; it stays because TestFleetE2EByteIdentity holds
	// its helper edge's forwarder lingering with it, so that kill -9
	// lands on records not yet forwarded.
	ForwardMaxDelay time.Duration

	// DrainTimeout bounds how long Drain waits for in-flight sessions
	// before force-closing them (default 30s).
	DrainTimeout time.Duration

	// LiveOff disables the streaming analytics pipeline. By default
	// every ingested record is classified and counted online
	// (honeynet_live_* metrics, the /live admin snapshot); see
	// Server.Live.
	LiveOff bool

	// OnRecord, if set, observes every session record after it is
	// appended to the store (when there is one).
	OnRecord func(*Record)
	// Download overrides the emulated fetcher (default
	// simulate.Fetcher(): deterministic content derived from the URI).
	Download func(uri string) ([]byte, error)
	// Registry receives every component's metrics; a fresh registry is
	// created when nil. Retrieve it via Server.Registry.
	Registry *Registry
}

// Defaults fills every unset field that has a default. Serve calls it;
// cmd/honeypotd calls it before registering flags, so its -h shows the
// values spelled here.
func (c *ServeConfig) Defaults() {
	if c.SSHAddr == "" {
		c.SSHAddr = ":2222"
	}
	if c.ID == "" {
		c.ID = "hp-1"
	}
	if c.Hostname == "" {
		c.Hostname = "svr04"
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Download == nil {
		c.Download = simulate.Fetcher()
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// Server is a running honeypot node started by Serve.
type Server struct {
	cfg     ServeConfig
	node    *honeypot.Node
	writer  *sessionlog.Writer // nil unless LogOutput is set
	store   *store.Store       // nil unless StorePath is set
	fwd     *fleet.Forwarder   // nil unless ForwardAddr is set
	livep   *live.Pipeline     // nil when LiveOff
	limiter *guard.Limiter
	budget  *guard.Budget
	reg     *obs.Registry

	sshAddr, telnetAddr, adminAddr string
	adminSrv                       *http.Server
}

// Serve starts a honeypot node: listeners up, guardrails armed, session
// store open, every component registered on the metrics registry, and the
// admin endpoint (if configured) serving. Callers own shutdown: call
// Drain for a graceful stop or Close to cut listeners immediately.
func Serve(cfg ServeConfig) (*Server, error) {
	cfg.Defaults()
	rate, err := guard.ParseRate(cfg.Rate)
	if err != nil {
		return nil, fmt.Errorf("honeynet: rate: %w", err)
	}

	// Each component is assigned to s as it is built, so every failure
	// below tears down exactly what exists through the one close.
	s := &Server{cfg: cfg, reg: cfg.Registry}
	fail := func(err error) (*Server, error) { return nil, errors.Join(err, s.close()) }
	if cfg.LogOutput == nil && cfg.StorePath == "" {
		return fail(errors.New("honeynet: ServeConfig needs LogOutput or StorePath"))
	}
	if cfg.LogOutput != nil {
		s.writer = sessionlog.NewStream(cfg.LogOutput)
	}
	if cfg.StorePath != "" {
		s.store, err = store.Open(cfg.StorePath, store.Options{})
		if err != nil {
			return fail(fmt.Errorf("honeynet: store: %w", err))
		}
	}
	if cfg.ForwardAddr != "" {
		if s.store == nil {
			return fail(errors.New("honeynet: ForwardAddr requires StorePath (the store is the durable send queue)"))
		}
		node := cfg.ForwardNodeID
		if node == "" {
			node = cfg.ID
		}
		s.fwd, err = fleet.NewForwarder(cfg.ForwardAddr, node, s.store, fleet.Options{MaxDelay: cfg.ForwardMaxDelay})
		if err != nil {
			return fail(fmt.Errorf("honeynet: forward: %w", err))
		}
	}

	s.limiter = guard.NewLimiter(guard.Config{
		MaxConns:      cfg.MaxConns,
		MaxConnsPerIP: cfg.MaxConnsPerIP,
		Rate:          rate,
	})
	if cfg.DownloadBudget > 0 {
		s.budget = &guard.Budget{MaxFetches: cfg.DownloadBudget, Window: time.Minute}
	}

	s.node, err = honeypot.New(honeypot.Config{
		ID:             cfg.ID,
		Hostname:       cfg.Hostname,
		Timeout:        cfg.Timeout,
		Persistent:     cfg.Persistent,
		Download:       cfg.Download,
		Guard:          s.limiter,
		DownloadBudget: s.budget,
		// The durable append comes first: a failed stream (a closed
		// stdout pipe) is counted, but never costs the store, live or
		// OnRecord a record.
		Sink: func(r *Record) error {
			if s.store != nil {
				if err := s.store.Append(r); err != nil {
					return err
				}
			}
			if s.livep != nil {
				s.livep.Observe(r)
			}
			if cfg.OnRecord != nil {
				cfg.OnRecord(r)
			}
			if s.writer != nil {
				return s.writer.Write(r)
			}
			return nil
		},
	})
	if err != nil {
		return fail(err)
	}

	s.node.Register(s.reg)
	s.limiter.Register(s.reg)
	s.budget.Register(s.reg)
	if s.store != nil {
		s.store.Register(s.reg)
	}
	if s.fwd != nil {
		s.fwd.Register(s.reg)
	}
	// The sink reads s.livep only once a session ends, after ListenSSH.
	var liveRoutes []obs.Route
	s.livep, liveRoutes = startLive(cfg.LiveOff, s.reg)

	s.sshAddr, err = s.node.ListenSSH(cfg.SSHAddr)
	if err != nil {
		return fail(fmt.Errorf("honeynet: ssh: %w", err))
	}
	if cfg.TelnetAddr != "" {
		s.telnetAddr, err = s.node.ListenTelnet(cfg.TelnetAddr)
		if err != nil {
			return fail(fmt.Errorf("honeynet: telnet: %w", err))
		}
	}
	if cfg.AdminAddr != "" {
		s.adminSrv, err = obs.ServeAdmin(cfg.AdminAddr, s.reg, func() error {
			if s.node.Draining() {
				return errors.New("draining")
			}
			return nil
		}, liveRoutes...)
		if err != nil {
			return fail(fmt.Errorf("honeynet: admin: %w", err))
		}
		s.adminAddr = s.adminSrv.Addr
	}
	return s, nil
}

// startLive builds the streaming analytics pipeline a daemon runs on
// its ingest path, registers its honeynet_live_* series on reg, and
// returns it with the /live route the daemon's admin endpoint mounts.
// With off it builds nothing and returns neither. Serve and Collect
// both call it, so the edge and the collector run one live surface.
func startLive(off bool, reg *obs.Registry) (*live.Pipeline, []obs.Route) {
	if off {
		return nil, nil
	}
	p := live.NewPipeline(live.Options{})
	p.Register(reg)
	return p, []obs.Route{{Pattern: "/live", Handler: p.Handler()}}
}

// SSHAddr returns the bound SSH address.
func (s *Server) SSHAddr() string { return s.sshAddr }

// TelnetAddr returns the bound Telnet address ("" when disabled).
func (s *Server) TelnetAddr() string { return s.telnetAddr }

// AdminAddr returns the bound admin address ("" when disabled).
func (s *Server) AdminAddr() string { return s.adminAddr }

// Registry returns the metrics registry every component reports to.
func (s *Server) Registry() *Registry { return s.reg }

// Metrics returns the node's operational counters.
func (s *Server) Metrics() honeypot.Metrics { return s.node.Metrics() }

// Forwarder returns the fleet forwarder (lag, ack state), or nil when
// ForwardAddr is unset.
func (s *Server) Forwarder() *fleet.Forwarder { return s.fwd }

// Live returns the streaming analytics pipeline, or nil when LiveOff.
func (s *Server) Live() *live.Pipeline { return s.livep }

// Drain gracefully shuts the server down: stop accepting, wait up to
// DrainTimeout for in-flight sessions (then force-close them), let the
// forwarder catch up, close the stream, seal and close the session
// store, and stop the admin endpoint. It returns how many connections
// had to be force-closed. /healthz turns unhealthy for the duration.
// reason labels the shutdown for the caller and is not recorded.
func (s *Server) Drain(reason string) (forced int, err error) {
	forced = s.node.Drain(s.cfg.DrainTimeout)
	var errs []error
	if s.fwd != nil {
		// Give the collector a chance to confirm everything local, then
		// stop forwarding; unacked records stay queued in the store and
		// a restarted node resumes from the collector's cursor.
		s.fwd.WaitCaughtUp(s.cfg.DrainTimeout)
		errs = append(errs, s.fwd.Close())
	}
	if s.writer != nil {
		errs = append(errs, s.writer.Close())
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	errs = append(errs, s.closeAdmin())
	return forced, errors.Join(errs...)
}

// Close cuts all listeners immediately without draining in-flight
// sessions or waiting for the forwarder.
func (s *Server) Close() error { return s.close() }

func (s *Server) close() error {
	var errs []error
	if s.node != nil {
		errs = append(errs, s.node.Close())
	}
	if s.fwd != nil {
		errs = append(errs, s.fwd.Close())
	}
	if s.writer != nil {
		errs = append(errs, s.writer.Close())
	}
	if s.store != nil {
		errs = append(errs, s.store.Close())
	}
	errs = append(errs, s.closeAdmin())
	return errors.Join(errs...)
}

func (s *Server) closeAdmin() error {
	if s.adminSrv == nil {
		return nil
	}
	srv := s.adminSrv
	s.adminSrv = nil
	return srv.Close()
}
