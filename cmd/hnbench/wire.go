package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"honeynet"
	"honeynet/internal/asdb"
	"honeynet/internal/botnet"
	"honeynet/internal/query"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
	"honeynet/internal/sshclient"
	"honeynet/internal/sshwire"
	"honeynet/internal/store"
)

const (
	wireClients = 2
	// One slice's sessions per workload. Sized so a slice is long
	// enough to hold hundreds of latency samples and short enough that
	// the window holds a dozen or more of them (README, "Sizing").
	scoutSliceOps   = 1200
	longcmdSliceOps = 90
	// sampleRecords caps how many committed records are kept for the
	// layer probes.
	sampleRecords = 4000
	// sessionDeadline bounds one longcmd session after login.
	sessionDeadline = 30 * time.Second
)

// wireSession is one scripted attacker session.
type wireSession struct {
	user, pass, version string
	cmds                []string
}

// flight tracks one session from the client's dial to the collector's
// commit. The hooks find it by the client's local port, which the
// honeypot stamps on the record.
type flight struct {
	op     int
	sess   *wireSession
	tr     *spanLog
	close  atomic.Int64 // client Close returned, ns since rig start
	emit   atomic.Int64 // edge ServeConfig.OnRecord fired
	commit atomic.Int64 // collector OnRecord fired
}

// wire is wire_scout and wire_longcmd: two closed-loop clients, one
// connection at a time each, over loopback TCP+SSH against
// honeynet.Serve (store + forwarder + live) forwarding to a collector.
type wire struct {
	cfg   config
	long  bool
	sched []wireSession // one slice's sessions, replayed every slice
	fetch func(uri string) ([]byte, error)

	dir  string
	t0   time.Time
	coll *collectorRig
	edge *honeynet.Server
	addr string

	mu       sync.Mutex
	edgeQ    map[int][]*flight // FIFO per local port: ports recycle within a run
	collQ    map[int][]*flight
	sample   []*session.Record
	cmdsSeen int64

	issued    int
	emitted   atomic.Int64
	committed atomic.Int64
	mismatch  atomic.Int64 // records that did not match their script
	dlNS      atomic.Int64 // time inside the Download hook
	dlN       atomic.Int64

	// Accumulated over the whole window for the per-layer report.
	emitMS, lagMS, ttqMS []float64
	catchup              []float64
	maxLag               uint64
	finished             bool
}

func newWire(cfg config, long bool) *wire {
	return &wire{cfg: cfg, long: long, fetch: simulate.Fetcher(),
		edgeQ: map[int][]*flight{}, collQ: map[int][]*flight{}}
}

func (w *wire) sliceOps() int {
	n := scoutSliceOps
	if w.long {
		n = longcmdSliceOps
	}
	return max(n/w.cfg.size, 2*wireClients)
}

// schedule draws one slice of sessions from the seed. Scouts present
// one credential the honeypot rejects; curl_maxred comes from the
// botnet catalog unchanged.
func (w *wire) schedule() error {
	rng := rand.New(rand.NewSource(w.cfg.seed))
	n := w.sliceOps()
	if !w.long {
		users := []string{"admin", "user", "pi", "test", "oracle", "ubnt", "guest", "git", "postgres", "nagios"}
		for i := 0; i < n; i++ {
			u := users[rng.Intn(len(users))]
			w.sched = append(w.sched, wireSession{user: u, pass: fmt.Sprintf("%s%04d", u, rng.Intn(10000)),
				version: "SSH-2.0-libssh2_1.9.0"})
		}
		return nil
	}
	var bot *botnet.Bot
	for _, b := range botnet.Catalog() {
		if b.Name == "curl_maxred" {
			bot = b
		}
	}
	if bot == nil {
		return errors.New("botnet catalog has no curl_maxred")
	}
	env := botnet.NewEnv(asdb.NewRegistry(w.cfg.seed+1, 100))
	day := botnet.D(2024, 2, 1)
	for i := 0; i < n; i++ {
		atk := bot.Gen(bot, env, rng, day)
		w.sched = append(w.sched, wireSession{user: atk.User, pass: atk.Password, version: atk.ClientVersion, cmds: atk.Commands})
	}
	return nil
}

func (w *wire) setup(dir string) error {
	if err := w.schedule(); err != nil {
		return err
	}
	w.dir, w.t0 = dir, time.Now()
	var err error
	if w.coll, err = startCollector(filepath.Join(dir, "fleet"), w.onCommit); err != nil {
		return err
	}
	w.edge, err = honeynet.Serve(honeynet.ServeConfig{
		SSHAddr:     "127.0.0.1:0",
		StorePath:   filepath.Join(dir, "edge"),
		ForwardAddr: w.coll.addr,
		OnRecord:    w.onEmit,
		// The default fetcher, timed: shell.download_us is the time
		// spent inside this hook.
		Download: func(uri string) ([]byte, error) {
			t := time.Now()
			b, err := w.fetch(uri)
			w.dlNS.Add(int64(time.Since(t)))
			w.dlN.Add(1)
			return b, err
		},
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	w.addr = w.edge.SSHAddr()
	s, err := w.slice(nil) // warm-up
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if s.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d sessions failed", s.failed, s.ops)
	}
	w.emitMS, w.lagMS, w.ttqMS, w.catchup = nil, nil, nil, nil
	return nil
}

// expect registers a session under its local port before the
// handshake, so neither hook can see the record first.
func (w *wire) expect(port int, f *flight) {
	w.mu.Lock()
	w.edgeQ[port] = append(w.edgeQ[port], f)
	w.collQ[port] = append(w.collQ[port], f)
	w.mu.Unlock()
}

func pop(q map[int][]*flight, port int) *flight {
	fs := q[port]
	if len(fs) == 0 {
		return nil
	}
	if len(fs) == 1 {
		delete(q, port)
	} else {
		q[port] = fs[1:]
	}
	return fs[0]
}

// onEmit is ServeConfig.OnRecord: the edge's sink has logged, stored
// and observed the record.
func (w *wire) onEmit(r *honeynet.Record) {
	t := time.Now()
	w.mu.Lock()
	f := pop(w.edgeQ, r.ClientPort)
	w.mu.Unlock()
	if f == nil {
		w.mismatch.Add(1)
	} else {
		f.emit.Store(int64(t.Sub(w.t0)))
	}
	w.emitted.Add(1)
}

// onCommit is the collector's post-commit hook: the record is in its
// node's shard and a query on the collector would return it. This is
// also the correctness gate for the record's content.
func (w *wire) onCommit(_ string, r *session.Record, t time.Time) *spanLog {
	w.mu.Lock()
	f := pop(w.collQ, r.ClientPort)
	if len(w.sample) < sampleRecords {
		w.sample = append(w.sample, r)
	}
	w.cmdsSeen += int64(len(r.Commands))
	w.mu.Unlock()
	var tr *spanLog
	if f == nil {
		w.mismatch.Add(1)
	} else {
		wantKind := session.Scouting
		if w.long {
			wantKind = session.CommandExec
		}
		if r.Kind() != wantKind || len(r.Commands) != len(f.sess.cmds) || len(r.Logins) != 1 || r.Logins[0].Username != f.sess.user {
			w.mismatch.Add(1)
		}
		f.commit.Store(int64(t.Sub(w.t0)))
		tr = f.tr
	}
	w.committed.Add(1)
	return tr
}

// session runs one scripted session and returns its latency, dial to
// Close returning.
func (w *wire) session(op int, s *wireSession, tr *spanLog, root int32) (*flight, float64, error) {
	t0 := time.Now()
	nc, err := net.DialTimeout("tcp", w.addr, 10*time.Second)
	if err != nil {
		return nil, 0, err
	}
	t1 := time.Now()
	// Close with a reset, as mass scanners do: a closed-loop client on
	// loopback would otherwise park tens of thousands of sockets in
	// TIME_WAIT, and the kernel's search for a free ephemeral port
	// then costs more the longer the benchmark has been running.
	if err := nc.(*net.TCPConn).SetLinger(0); err != nil {
		nc.Close()
		return nil, 0, err
	}
	f := &flight{op: op, sess: s, tr: tr}
	w.expect(nc.LocalAddr().(*net.TCPAddr).Port, f)
	cli, err := sshclient.NewClientConn(nc, sshclient.Config{User: s.user, Password: s.pass, Version: s.version, Timeout: 10 * time.Second})
	t2 := time.Now()
	tr.add("sshclient.dial", op, root, t0, t1)
	tr.add("sshclient.handshake_auth", op, root, t1, t2)
	tc := t2 // when the client starts closing
	switch {
	case !w.long && errors.Is(err, sshclient.ErrAuthFailed):
		err = nc.Close()
	case !w.long && err == nil:
		err = errors.Join(errors.New("scout login was accepted"), cli.Close())
	case err != nil:
		nc.Close()
	default:
		// A wedged session must fail, not hang the run.
		_ = nc.SetDeadline(time.Now().Add(sessionDeadline))
		for _, cmd := range s.cmds {
			te := time.Now()
			if err = execCommand(cli, cmd); err != nil {
				break
			}
			tr.add("sshclient.exec", op, root, te, time.Now())
		}
		tc = time.Now()
		err = errors.Join(err, cli.Close())
	}
	t3 := time.Now()
	tr.add("sshclient.close", op, root, tc, t3)
	f.close.Store(int64(t3.Sub(w.t0)))
	return f, ms(t3.Sub(t0)), err
}

// execCommand runs one command on its own session channel and reads
// its output to the end, as sshclient.Exec does, except that the exec
// request does not ask for a reply. sshclient.Exec does, and
// sshwire.Channel.SendRequest can then wait for ever: when the whole
// exchange — success, output, exit-status, close — is dispatched before
// the caller reaches its select, markClosed has already dropped the
// reply channel and the caller waits on a fresh one. About one exec in
// a million hit that here (README, "Found while building this").
func execCommand(cli *sshclient.Client, cmd string) error {
	ch, err := cli.OpenRaw("session", nil)
	if err != nil {
		return err
	}
	defer ch.Close()
	b := sshwire.NewBuilder(4 + len(cmd))
	b.StringS(cmd)
	if _, err := ch.SendRequest("exec", false, b.Bytes()); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for req := range ch.Requests() { // exit-status
			_ = req.Reply(false)
		}
	}()
	_, err = io.Copy(io.Discard, ch)
	<-done
	return err
}

func (w *wire) slice(tr *spanLog) (sliceStat, error) {
	n := len(w.sched)
	flights := make([]*flight, n)
	lats := make([]float64, n)
	var failed atomic.Int64
	base := w.issued
	w.issued += n

	cpu0, start := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < wireClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			root := tr.open("client.slice", c, -1, time.Now())
			for i := c; i < n; i += wireClients {
				f, lat, err := w.session(base+i, &w.sched[i], tr, root)
				if err != nil {
					failed.Add(1)
				}
				flights[i], lats[i] = f, lat
			}
			tr.close(root, time.Now())
		}(c)
	}
	wg.Wait()
	lastClose := time.Now()
	w.maxLag = max(w.maxLag, w.edge.Forwarder().Lag())
	// A session is done when the collector has it; the slice ends there.
	want := int64(w.issued)
	if !waitFor(30*time.Second, func() bool { return w.committed.Load() >= want && w.emitted.Load() >= want }) {
		return sliceStat{}, fmt.Errorf("collector has %d of %d records after 30 s", w.committed.Load(), want)
	}
	end := time.Now()
	st := sliceStat{ops: n, failed: int(failed.Load()), wall: end.Sub(start), cpu: cpuTime() - cpu0}
	w.catchup = append(w.catchup, end.Sub(lastClose).Seconds())
	for i, f := range flights {
		if f == nil || f.commit.Load() == 0 {
			continue
		}
		st.lat = append(st.lat, lats[i])
		ttq := float64(f.commit.Load()-f.close.Load()) / 1e6
		st.ttq = append(st.ttq, ttq)
		w.ttqMS = append(w.ttqMS, ttq)
		w.emitMS = append(w.emitMS, float64(f.emit.Load()-f.close.Load())/1e6)
		w.lagMS = append(w.lagMS, float64(f.commit.Load()-f.emit.Load())/1e6)
		// The record's own path after the client has gone, between hooks.
		tClose := w.t0.Add(time.Duration(f.close.Load()))
		tEmit := w.t0.Add(time.Duration(f.emit.Load()))
		tr.add("bg.honeypot.record_emit", f.op, -1, tClose, tEmit)
		tr.add("bg.fleet.forward_commit", f.op, -1, tEmit, w.t0.Add(time.Duration(f.commit.Load())))
	}
	return st, nil
}

func (w *wire) finish(m metricSet, tr *spanLog) (int, error) {
	w.finished = true
	edgeSnap := w.edge.Registry().Snapshot()
	hm := w.edge.Metrics()
	forced, err := w.edge.Drain("hnbench")
	if err != nil {
		return 0, fmt.Errorf("drain: %w", err)
	}
	if err := w.coll.close(); err != nil {
		return 0, err
	}
	wrong := int(w.mismatch.Load()) + forced
	w.mu.Lock()
	left := len(w.edgeQ) + len(w.collQ)
	w.mu.Unlock()
	wrong += left // scripted sessions that never produced a record

	// The sealed directory must answer a query with exactly what was
	// sent: one record per session, all of the scripted kind.
	fl, err := store.OpenFleet(w.coll.dir, store.Options{ReadOnly: true})
	if err != nil {
		return 0, fmt.Errorf("reopen fleet dir: %w", err)
	}
	res, err := query.Run(fl, "SELECT kind, count(*) GROUP BY kind")
	cerr := fl.Close()
	if err != nil || cerr != nil {
		return 0, errors.Join(err, cerr)
	}
	wantKind := session.Scouting.String()
	if w.long {
		wantKind = session.CommandExec.String()
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != wantKind || res.Rows[0][1].Int != int64(w.issued) {
		wrong++
	}
	if hm.ConnsShed != 0 || hm.SinkErrors != 0 {
		wrong++
	}

	m["sshd.conns_accepted"] = float64(hm.AuthSuccesses + hm.AuthFailures)
	m["sshd.conns_shed"] = float64(hm.SSHConnections - hm.AuthSuccesses - hm.AuthFailures)
	m["guard.shed"] = float64(hm.ConnsShed)
	m["honeypot.connections"] = float64(hm.SSHConnections)
	m["honeypot.sink_errors"] = float64(hm.SinkErrors)
	m["honeypot.commands"] = float64(hm.Commands)
	m["honeypot.downloads"] = float64(hm.Downloads)
	m["guard.downloads_throttled"] = float64(hm.DownloadsThrottled)
	m["shell.cmds_per_session"] = float64(w.cmdsSeen) / float64(w.issued)
	if n := w.dlN.Load(); n > 0 {
		m["shell.download_us"] = float64(w.dlNS.Load()) / 1e3 / float64(n)
	}
	m["honeypot.record_emit_p50_ms"] = median(w.emitMS)
	m["fleet.commit_lag_p50_ms"] = median(w.lagMS)
	m["fleet.commit_lag_p99_ms"] = percentile(w.lagMS, 99)
	m["fleet.ttq_p99_ms"] = percentile(w.ttqMS, 99)
	m["fleet.max_lag_recs"] = float64(w.maxLag)
	m["fleet.catchup_s"] = median(w.catchup)
	m["fleet.forward_batches"] = edgeSnap["honeynet_fleet_forward_batches_total"]
	m["fleet.redelivered"] = edgeSnap["honeynet_fleet_forward_redelivered_total"]
	if err := w.coll.collectorMetrics(m, w.issued); err != nil {
		return 0, err
	}
	if m["fleet.redelivered"] != 0 || m["fleet.duplicates"] != 0 {
		wrong++
	}
	m["sshclient.dial_p50_us"] = 1e3 * median(tr.durations("sshclient.dial"))
	m["sshclient.close_p50_us"] = 1e3 * median(tr.durations("sshclient.close"))
	if ex := tr.durations("sshclient.exec"); len(ex) > 0 {
		m["sshclient.exec_p50_us"] = 1e3 * median(ex)
		m["sshclient.exec_p99_us"] = 1e3 * percentile(ex, 99)
	}
	return wrong, nil
}

func (w *wire) probes(m metricSet) {
	wireProbes(m, w.sched)
	w.mu.Lock()
	recs := w.sample
	w.mu.Unlock()
	recordProbes(m, recs, filepath.Join(w.dir, "probe"))
}

func (w *wire) close() error {
	var errs []error
	if w.edge != nil && !w.finished {
		errs = append(errs, w.edge.Close())
	}
	w.finished = true
	errs = append(errs, w.coll.close())
	return errors.Join(errs...)
}
