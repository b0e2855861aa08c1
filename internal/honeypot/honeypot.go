// Package honeypot assembles one Cowrie-style medium-interaction
// honeypot node: an SSH endpoint (internal/sshd), a Telnet endpoint
// (internal/telnetd), the emulated shell and virtual filesystem, and the
// session recording pipeline that produces session.Records identical in
// shape to the honeynet database described in the paper.
//
// Authentication policy matches section 3.2: password auth as "root"
// succeeds with any password except "root"; public keys are unsupported.
// Cowrie's well-known default account "phil" also logs in (the honeypot-
// fingerprinting vector of section 8), while the pre-2020 default
// "richard" always fails.
package honeypot

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"honeynet/internal/guard"
	"honeynet/internal/obs"
	"honeynet/internal/session"
	"honeynet/internal/shell"
	"honeynet/internal/sshd"
	"honeynet/internal/sshwire"
	"honeynet/internal/telnetd"
	"honeynet/internal/vfs"
)

// DefaultTimeout is the session cap of the paper's deployment (3 min).
const DefaultTimeout = 3 * time.Minute

// Config parameterizes a honeypot node.
type Config struct {
	// ID names the node in session records (e.g. "hp-042").
	ID string
	// Hostname is the fake hostname the shell presents.
	Hostname string
	// PublicIP is recorded as the honeypot's address in sessions.
	PublicIP string
	// HostKeySeed, if 32 bytes, derives a stable ed25519 host key.
	HostKeySeed []byte
	// Download supplies content for emulated wget/curl fetches.
	Download shell.DownloadFunc
	// DownloadBudget, if set, throttles emulated fetches per client IP
	// so the honeypot cannot be farmed as an open proxy (the paper's
	// curl_maxred abuse relayed ~20M requests through the honeynet).
	DownloadBudget *guard.Budget
	// Guard, if set, enforces per-IP connection rates and global /
	// per-IP concurrency caps on both protocol endpoints.
	Guard *guard.Limiter
	// Sink receives every completed session record. Required. A non-nil
	// error is counted in Metrics.SinkErrors — a full disk must be
	// visible, not silent.
	Sink func(*session.Record) error
	// Timeout is the hard session cap; zero means DefaultTimeout.
	Timeout time.Duration
	// Now supplies timestamps (for simulation); nil means time.Now.
	Now func() time.Time
	// Persistent keeps one virtual filesystem per client IP across
	// connections — the "persistent storage" improvement of the paper's
	// Call for Better Honeypots: a returning attacker's consistency
	// check (drop a file, reconnect, verify) passes instead of exposing
	// the honeypot.
	Persistent bool
}

// Node is one running honeypot.
type Node struct {
	cfg     Config
	hostKey *sshwire.HostKey
	nextID  atomic.Uint64

	mu        sync.Mutex
	listeners []net.Listener

	// Drain machinery: every in-flight connection is tracked so SIGTERM
	// can stop accepting, wait for sessions to finish, then force-close.
	draining atomic.Bool
	inflight sync.WaitGroup
	activeMu sync.Mutex
	active   map[net.Conn]struct{}

	// persist maps client IP -> retained filesystem (Persistent mode).
	persistMu sync.Mutex
	persist   map[string]*vfs.FS

	// Operational counters.
	stats struct {
		connsSSH     atomic.Int64
		connsTelnet  atomic.Int64
		authOK       atomic.Int64
		authFail     atomic.Int64
		commands     atomic.Int64
		downloads    atomic.Int64
		stateChanges atomic.Int64
		sinkErrs     atomic.Int64
	}

	// durHist observes recorded session durations once the node is
	// registered on an obs.Registry; nil (no-op) otherwise. Atomic so a
	// late Register cannot race a concurrent finish.
	durHist atomic.Pointer[obs.Histogram]
}

// Metrics is a snapshot of a node's operational counters — what a
// production honeypot deployment exports for monitoring.
type Metrics struct {
	SSHConnections    int64
	TelnetConnections int64
	AuthSuccesses     int64
	AuthFailures      int64
	Commands          int64
	Downloads         int64
	StateChanges      int64
	// SinkErrors counts session records the Sink failed to persist.
	SinkErrors int64
	// ConnsShed counts connections refused or evicted by the guard
	// (per-IP cap, rate limit, or oldest-connection eviction).
	ConnsShed int64
	// RateLimited is the rate-limiter share of ConnsShed.
	RateLimited int64
	// DownloadsThrottled counts emulated fetches refused over budget.
	DownloadsThrottled int64
	// ActiveConns is the number of connections currently in flight.
	ActiveConns int64
}

// Metrics returns the node's current counters.
func (n *Node) Metrics() Metrics {
	m := Metrics{
		SSHConnections:     n.stats.connsSSH.Load(),
		TelnetConnections:  n.stats.connsTelnet.Load(),
		AuthSuccesses:      n.stats.authOK.Load(),
		AuthFailures:       n.stats.authFail.Load(),
		Commands:           n.stats.commands.Load(),
		Downloads:          n.stats.downloads.Load(),
		StateChanges:       n.stats.stateChanges.Load(),
		SinkErrors:         n.stats.sinkErrs.Load(),
		DownloadsThrottled: n.cfg.DownloadBudget.Throttled(),
	}
	if n.cfg.Guard != nil {
		gs := n.cfg.Guard.Stats()
		m.ConnsShed = gs.Shed()
		m.RateLimited = gs.ShedRate
	}
	n.activeMu.Lock()
	m.ActiveConns = int64(len(n.active))
	n.activeMu.Unlock()
	return m
}

// Register exposes the node's operational counters on reg:
//
//	honeynet_node_connections_total{proto="ssh"|"telnet"}
//	honeynet_node_auth_total{result="ok"|"fail"}
//	honeynet_node_commands_total
//	honeynet_node_downloads_total
//	honeynet_node_state_changes_total
//	honeynet_node_sink_errors_total
//	honeynet_node_active_connections
//	honeynet_session_duration_seconds (histogram)
//
// The guard's and budget's own counters register separately (see
// guard.Limiter.Register and guard.Budget.Register).
func (n *Node) Register(reg *obs.Registry) {
	reg.CounterFunc("honeynet_node_connections_total",
		"Connections handled by the node, by protocol.",
		n.stats.connsSSH.Load, obs.L("proto", "ssh"))
	reg.CounterFunc("honeynet_node_connections_total",
		"Connections handled by the node, by protocol.",
		n.stats.connsTelnet.Load, obs.L("proto", "telnet"))
	reg.CounterFunc("honeynet_node_auth_total",
		"Login attempts recorded, by outcome.",
		n.stats.authOK.Load, obs.L("result", "ok"))
	reg.CounterFunc("honeynet_node_auth_total",
		"Login attempts recorded, by outcome.",
		n.stats.authFail.Load, obs.L("result", "fail"))
	reg.CounterFunc("honeynet_node_commands_total",
		"Shell commands recorded across all sessions.", n.stats.commands.Load)
	reg.CounterFunc("honeynet_node_downloads_total",
		"Emulated file downloads recorded.", n.stats.downloads.Load)
	reg.CounterFunc("honeynet_node_state_changes_total",
		"Sessions that changed the virtual filesystem.", n.stats.stateChanges.Load)
	reg.CounterFunc("honeynet_node_sink_errors_total",
		"Session records the Sink failed to persist.", n.stats.sinkErrs.Load)
	reg.GaugeFunc("honeynet_node_active_connections",
		"Connections currently in flight.",
		func() float64 {
			n.activeMu.Lock()
			defer n.activeMu.Unlock()
			return float64(len(n.active))
		})
	n.durHist.Store(reg.Histogram("honeynet_session_duration_seconds",
		"Recorded session durations.", obs.DurationBuckets))
}

// New builds a node from cfg.
func New(cfg Config) (*Node, error) {
	if cfg.Sink == nil {
		return nil, errors.New("honeypot: Config.Sink is required")
	}
	if cfg.ID == "" {
		cfg.ID = "hp-0"
	}
	if cfg.Hostname == "" {
		cfg.Hostname = "svr04"
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	var hk *sshwire.HostKey
	var err error
	if len(cfg.HostKeySeed) > 0 {
		hk, err = sshwire.HostKeyFromSeed(cfg.HostKeySeed)
	} else {
		hk, err = sshwire.GenerateHostKey()
	}
	if err != nil {
		return nil, err
	}
	return &Node{cfg: cfg, hostKey: hk}, nil
}

// AllowLogin implements the honeynet's credential policy.
func AllowLogin(user, password string) bool {
	switch user {
	case "root":
		return password != "root"
	case "phil":
		// Cowrie default account (post-2020); the fingerprinting target.
		return true
	default:
		return false
	}
}

// ListenSSH starts the SSH endpoint on addr and serves until the listener
// closes. It returns the bound address.
func (n *Node) ListenSSH(addr string) (string, error) { return n.listen(addr, n.HandleSSHConn) }

// ListenTelnet starts the Telnet endpoint on addr.
func (n *Node) ListenTelnet(addr string) (string, error) { return n.listen(addr, n.HandleTelnetConn) }

// listen is the node's one accept loop: every connection on addr gets
// its own goroutine running handle, which admits or sheds it (admit).
func (n *Node) listen(addr string, handle func(net.Conn)) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	n.listeners = append(n.listeners, ln)
	n.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go handle(c)
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops all listeners. In-flight sessions keep running; use
// Drain to wait for (and then force) their completion.
func (n *Node) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, ln := range n.listeners {
		_ = ln.Close()
	}
	n.listeners = nil
	return nil
}

// Drain gracefully shuts the node down: stop accepting, let in-flight
// sessions finish for up to timeout, then force-close the stragglers.
// Force-closed sessions still flow through the Sink — a record cut
// short at shutdown beats a record lost. Drain returns the number of
// connections that had to be force-closed.
func (n *Node) Drain(timeout time.Duration) int {
	n.draining.Store(true)
	_ = n.Close()
	done := make(chan struct{})
	go func() {
		n.inflight.Wait()
		close(done)
	}()
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-done:
			return 0
		case <-t.C:
		}
	}
	// Deadline passed (or zero timeout): force-close what remains. The
	// protocol handlers unwind on the closed conn and finish() still
	// seals and delivers each record.
	n.activeMu.Lock()
	forced := len(n.active)
	for c := range n.active {
		_ = c.Close()
	}
	n.activeMu.Unlock()
	<-done
	return forced
}

// Draining reports whether Drain has been initiated — the admin
// endpoint's /healthz turns unhealthy on it.
func (n *Node) Draining() bool { return n.draining.Load() }

// admit runs the guard policy for one incoming connection and registers
// it for drain tracking. ok=false means the connection was shed and
// closed; otherwise the caller must invoke release when done.
func (n *Node) admit(nc net.Conn) (release func(), ok bool) {
	if n.draining.Load() {
		_ = nc.Close()
		return nil, false
	}
	var guardRelease func()
	if n.cfg.Guard != nil {
		ip, _ := splitAddr(nc.RemoteAddr())
		var d guard.Decision
		guardRelease, d = n.cfg.Guard.Admit(ip, func() { _ = nc.Close() })
		if d != guard.Admitted {
			_ = nc.Close()
			return nil, false
		}
	}
	n.inflight.Add(1)
	n.activeMu.Lock()
	if n.active == nil {
		n.active = map[net.Conn]struct{}{}
	}
	n.active[nc] = struct{}{}
	n.activeMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			n.activeMu.Lock()
			delete(n.active, nc)
			n.activeMu.Unlock()
			if guardRelease != nil {
				guardRelease()
			}
			n.inflight.Done()
		})
	}, true
}

// connState accumulates one connection's session record.
type connState struct {
	mu  sync.Mutex
	rec *session.Record
	sh  *shell.Shell
}

func (n *Node) newRecord(proto string, remote net.Addr) *session.Record {
	ip, port := splitAddr(remote)
	return &session.Record{
		ID:         n.nextID.Add(1),
		Start:      n.cfg.Now().UTC(),
		HoneypotID: n.cfg.ID,
		HoneypotIP: n.cfg.PublicIP,
		ClientIP:   ip,
		ClientPort: port,
		Protocol:   proto,
	}
}

func splitAddr(a net.Addr) (string, int) {
	if a == nil {
		return "", 0
	}
	host, portStr, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String(), 0
	}
	port, _ := strconv.Atoi(portStr)
	return host, port
}

// finish seals and delivers the record.
func (n *Node) finish(st *connState, timedOut bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.rec == nil {
		return
	}
	rec := st.rec
	st.rec = nil
	rec.End = n.cfg.Now().UTC()
	rec.TimedOut = timedOut
	if st.sh != nil {
		rec.Commands = st.sh.Commands()
		rec.Downloads = st.sh.Downloads()
		rec.ExecAttempts = st.sh.ExecAttempts()
		rec.StateChanged = st.sh.StateChanged()
		rec.DroppedHashes = st.sh.DroppedHashes()
	}
	n.stats.commands.Add(int64(len(rec.Commands)))
	n.stats.downloads.Add(int64(len(rec.Downloads)))
	if rec.StateChanged {
		n.stats.stateChanges.Add(1)
	}
	for _, l := range rec.Logins {
		if l.Success {
			n.stats.authOK.Add(1)
		} else {
			n.stats.authFail.Add(1)
		}
	}
	n.durHist.Load().Observe(rec.End.Sub(rec.Start).Seconds())
	if err := n.cfg.Sink(rec); err != nil {
		n.stats.sinkErrs.Add(1)
	}
}

// HandleSSHConn runs the complete honeypot lifecycle on one SSH TCP
// connection.
func (n *Node) HandleSSHConn(nc net.Conn) {
	release, ok := n.admit(nc)
	if !ok {
		return
	}
	defer release()
	n.stats.connsSSH.Add(1)
	st := &connState{rec: n.newRecord(session.ProtoSSH, nc.RemoteAddr())}
	start := time.Now()
	srv, err := sshd.New(sshd.Config{
		HostKey:     n.hostKey,
		ConnTimeout: n.cfg.Timeout,
		Auth: func(_ sshd.ConnMeta, user, password string) bool {
			return AllowLogin(user, password)
		},
		OnAuthAttempt: func(meta sshd.ConnMeta, user, password string, ok bool) {
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.rec == nil {
				return
			}
			if st.rec.ClientVersion == "" {
				st.rec.ClientVersion = meta.ClientVersion
			}
			st.rec.Logins = append(st.rec.Logins, session.LoginAttempt{
				Username: user, Password: password, Success: ok,
			})
		},
		Handler: func(s *sshd.Session) {
			n.runSession(st, s)
		},
	})
	if err != nil {
		nc.Close()
		n.finish(st, false)
		return
	}
	_ = srv.HandleConn(nc)
	n.finish(st, n.cfg.Timeout > 0 && time.Since(start) >= n.cfg.Timeout)
}

// sessionShell returns the connection's shell, creating it on first use.
// All session channels of a connection share one filesystem, like a real
// host would. In Persistent mode the filesystem is additionally shared
// across connections from the same client IP, so attacker consistency
// checks succeed.
func (n *Node) sessionShell(st *connState) *shell.Shell {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.sh == nil {
		dl := n.cfg.Download
		if n.cfg.DownloadBudget != nil && st.rec != nil {
			dl = shell.DownloadFunc(n.cfg.DownloadBudget.Wrap(st.rec.ClientIP, dl))
		}
		st.sh = shell.NewWithFS(n.cfg.Hostname, n.clientFS(st), dl)
	}
	return st.sh
}

// clientFS returns the filesystem for the connection's client: a fresh
// one per connection normally, a retained per-IP one in Persistent mode.
// Caller holds st.mu.
func (n *Node) clientFS(st *connState) *vfs.FS {
	if !n.cfg.Persistent || st.rec == nil || st.rec.ClientIP == "" {
		return vfs.New()
	}
	n.persistMu.Lock()
	defer n.persistMu.Unlock()
	if n.persist == nil {
		n.persist = map[string]*vfs.FS{}
	}
	fs, ok := n.persist[st.rec.ClientIP]
	if !ok {
		fs = vfs.New()
		n.persist[st.rec.ClientIP] = fs
	}
	return fs
}

// runSession services one SSH session channel: exec runs a single line,
// shell runs the interactive loop.
func (n *Node) runSession(st *connState, s *sshd.Session) {
	sh := n.sessionShell(st)
	if s.Command != "" {
		st.mu.Lock()
		out := sh.Run(s.Command)
		st.mu.Unlock()
		if out != "" {
			_, _ = io.WriteString(s, crlf(out))
		}
		_ = s.Exit(0)
		return
	}
	n.interactive(st, sh, s, s)
	_ = s.Exit(0)
}

// interactive drives the line-oriented shell loop over rw.
func (n *Node) interactive(st *connState, sh *shell.Shell, r io.Reader, w io.Writer) {
	if _, err := io.WriteString(w, n.motd()+crlf(sh.Prompt())); err != nil {
		return
	}
	buf := make([]byte, 4096)
	var line strings.Builder
	for {
		nr, err := r.Read(buf)
		if nr > 0 {
			line.WriteString(string(buf[:nr]))
			for {
				txt := line.String()
				i := strings.IndexAny(txt, "\r\n")
				if i < 0 {
					break
				}
				cmd := txt[:i]
				rest := strings.TrimPrefix(strings.TrimPrefix(txt[i:], "\r"), "\n")
				line.Reset()
				line.WriteString(rest)

				st.mu.Lock()
				out := sh.Run(cmd)
				exited := sh.Exited()
				st.mu.Unlock()
				if out != "" {
					if _, err := io.WriteString(w, crlf(out)); err != nil {
						return
					}
				}
				if exited {
					return
				}
				if _, err := io.WriteString(w, crlf(sh.Prompt())); err != nil {
					return
				}
			}
		}
		if err != nil {
			return
		}
	}
}

func (n *Node) motd() string {
	return fmt.Sprintf("Linux %s 5.10.0-8-amd64 #1 SMP Debian 5.10.46-4 (2021-08-03) x86_64\r\n\r\nThe programs included with the Debian GNU/Linux system are free software.\r\nLast login: %s from 203.0.113.7\r\n",
		n.cfg.Hostname, n.cfg.Now().UTC().Format("Mon Jan 2 15:04:05 2006"))
}

// crlf normalizes newlines for terminal output.
func crlf(s string) string {
	return strings.ReplaceAll(s, "\n", "\r\n")
}

// HandleTelnetConn runs the honeypot lifecycle on one Telnet connection.
func (n *Node) HandleTelnetConn(nc net.Conn) {
	release, ok := n.admit(nc)
	if !ok {
		return
	}
	defer release()
	n.stats.connsTelnet.Add(1)
	st := &connState{rec: n.newRecord(session.ProtoTelnet, nc.RemoteAddr())}
	start := time.Now()
	srv, err := telnetd.New(telnetd.Config{
		Banner:      "Debian GNU/Linux 11",
		ConnTimeout: n.cfg.Timeout,
		Auth:        AllowLogin,
		OnAuthAttempt: func(user, password string, ok bool) {
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.rec == nil {
				return
			}
			st.rec.Logins = append(st.rec.Logins, session.LoginAttempt{
				Username: user, Password: password, Success: ok,
			})
		},
		Handler: func(user string, rw io.ReadWriter) {
			sh := n.sessionShell(st)
			sh.User = user
			n.interactive(st, sh, rw, rw)
		},
	})
	if err != nil {
		nc.Close()
		n.finish(st, false)
		return
	}
	_ = srv.HandleConn(nc)
	n.finish(st, n.cfg.Timeout > 0 && time.Since(start) >= n.cfg.Timeout)
}
