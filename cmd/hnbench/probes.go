package main

import (
	"io"
	"net"
	"runtime"
	"time"

	"honeynet/internal/classify"
	"honeynet/internal/guard"
	"honeynet/internal/honeypot"
	"honeynet/internal/live"
	"honeynet/internal/session"
	"honeynet/internal/sessionlog"
	"honeynet/internal/shell"
	"honeynet/internal/simulate"
	"honeynet/internal/sshclient"
	"honeynet/internal/sshd"
	"honeynet/internal/sshwire"
	"honeynet/internal/store"
	"honeynet/internal/vfs"
)

// Layer probes: single-threaded loops that push a workload's own
// inputs through one public function of one layer, after the measured
// window. They say what a layer costs alone; the spans say what it
// cost in place. A probe that cannot set itself up leaves its metric
// at 0 rather than failing a run whose end-to-end gate already passed.

// timeAndAllocs runs f n times and returns the mean wall time and the
// mean heap allocations per call.
func timeAndAllocs(n int, f func()) (perCall time.Duration, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d / time.Duration(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(ln net.Listener) (client, server net.Conn, err error) {
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	client, err = net.Dial("tcp", ln.Addr().String())
	a := <-ch
	if err != nil || a.err != nil {
		if client != nil {
			client.Close()
		}
		if a.c != nil {
			a.c.Close()
		}
		if err == nil {
			err = a.err
		}
		return nil, nil, err
	}
	return client, a.c, nil
}

// wireProbes measures the layers under a wire session one at a time:
// the transport handshake, the sshd session set-up above it, a packet
// round trip, guard admission, a fresh filesystem, and the emulated
// shell over the scripted commands.
func wireProbes(m metricSet, sched []wireSession) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return
	}
	defer ln.Close()
	hk, err := sshwire.GenerateHostKey()
	if err != nil {
		return
	}

	// sshwire: version exchange + curve25519 kex + NEWKEYS, both ends.
	handshake := func() (c, s *sshwire.Conn) {
		cn, sn, err := tcpPair(ln)
		if err != nil {
			return nil, nil
		}
		done := make(chan *sshwire.Conn, 1)
		go func() {
			sc, _ := sshwire.ServerHandshake(sn, &sshwire.Config{HostKey: hk})
			done <- sc
		}()
		cc, _ := sshwire.ClientHandshake(cn, &sshwire.Config{})
		sc := <-done
		if cc == nil || sc == nil {
			cn.Close()
			sn.Close()
			return nil, nil
		}
		return cc, sc
	}
	ok := true
	d, a := timeAndAllocs(200, func() {
		c, s := handshake()
		if c == nil {
			ok = false
			return
		}
		c.Close()
		s.Close()
	})
	if ok {
		m["sshwire.handshake_us"] = us(d)
		m["sshwire.handshake_allocs"] = a
	}

	// sshwire: one 256-byte packet there and back on an open transport.
	if c, s := handshake(); c != nil {
		go func() {
			for {
				p, err := s.ReadPacket()
				if err != nil || s.WritePacket(p) != nil {
					return
				}
			}
		}()
		payload := make([]byte, 256)
		payload[0] = sshwire.MsgChannelData
		d, a := timeAndAllocs(20000, func() {
			if c.WritePacket(payload) == nil {
				_, _ = c.ReadPacket()
			}
		})
		m["sshwire.packet_us"] = us(d)
		m["sshwire.packet_allocs"] = a
		c.Close()
		s.Close()
	}

	// sshd: handshake + service request + one password exchange, the
	// honeypot's policy deciding, over the first scripted credential.
	srv, err := sshd.New(sshd.Config{
		HostKey: hk,
		Auth:    func(_ sshd.ConnMeta, user, password string) bool { return honeypot.AllowLogin(user, password) },
		Handler: func(s *sshd.Session) { _ = s.Exit(0) },
	})
	if err == nil && len(sched) > 0 {
		i := 0
		d, _ := timeAndAllocs(200, func() {
			cn, sn, err := tcpPair(ln)
			if err != nil {
				return
			}
			done := make(chan struct{})
			go func() { _ = srv.HandleConn(sn); close(done) }()
			s := &sched[i%len(sched)]
			i++
			cli, err := sshclient.NewClientConn(cn, sshclient.Config{User: s.user, Password: s.pass, Version: s.version})
			if err == nil {
				cli.Close()
			} else {
				cn.Close()
			}
			<-done
		})
		m["sshd.session_setup_us"] = us(d)
	}

	// guard: admit and release with the daemon's default (unlimited) policy.
	lim := guard.NewLimiter(guard.Config{})
	d, _ = timeAndAllocs(200000, func() {
		if release, dec := lim.Admit("127.0.0.1", func() {}); dec == guard.Admitted {
			release()
		}
	})
	m["guard.admit_ns"] = float64(d)

	// vfs: the per-login filesystem.
	d, _ = timeAndAllocs(2000, func() { _ = vfs.New() })
	m["vfs.new_fs_us"] = us(d)

	// shell: a fresh shell per session over the scripted commands.
	cmds, changes, sessions := 0, 0, 0
	fetch := simulate.Fetcher()
	t0 := time.Now()
	for i := range sched {
		if len(sched[i].cmds) == 0 || i >= 200 {
			continue
		}
		sh := shell.New("svr04", fetch)
		for _, c := range sched[i].cmds {
			sh.Run(c)
		}
		cmds += len(sched[i].cmds)
		changes += sh.FS.ChangeCount()
		sessions++
	}
	if cmds > 0 {
		m["shell.run_us_per_cmd"] = us(time.Since(t0)) / float64(cmds)
		m["vfs.changes_per_session"] = float64(changes) / float64(sessions)
	}
}

// recordProbes measures the layers a record passes through after the
// session ends — codec, session log, store append, live analytics,
// batch classifier — over records the workload itself produced. dir
// is scratch space under the run's temp root.
func recordProbes(m metricSet, recs []*session.Record, dir string) {
	if len(recs) == 0 {
		return
	}
	n := float64(len(recs))

	// session: canonical JSON encode, decode, column shred.
	var lines [][]byte
	bytes := 0
	t0 := time.Now()
	for _, r := range recs {
		line, err := session.AppendJSON(nil, r)
		if err != nil {
			return
		}
		lines = append(lines, line)
		bytes += len(line)
	}
	m["session.encode_ns_per_rec"] = float64(time.Since(t0)) / n
	m["session.json_bytes_per_rec"] = float64(bytes) / n
	dec := &session.JSONDecoder{}
	t0 = time.Now()
	for _, line := range lines {
		var r session.Record
		if dec.Decode(line, &r) != nil {
			return
		}
	}
	m["session.decode_ns_per_rec"] = float64(time.Since(t0)) / n
	var cols session.Columns
	t0 = time.Now()
	for _, line := range lines {
		session.ShredJSON(line, &cols)
	}
	m["session.shred_ns_per_rec"] = float64(time.Since(t0)) / n

	// sessionlog: the JSONL log honeypotd writes when -log is set (the
	// rigs here are store-only, so this layer shows only as a probe).
	lw := sessionlog.NewStream(io.Discard)
	t0 = time.Now()
	for _, r := range recs {
		if lw.Write(r) != nil {
			break
		}
	}
	m["sessionlog.write_ns_per_rec"] = float64(time.Since(t0)) / n
	_ = lw.Close()

	// store: Append alone, default options, one appender. Workloads
	// that call Append themselves report the in-place figure instead.
	if _, measured := m["store.append_p50_us"]; !measured {
		if st, err := store.Open(dir, store.Options{}); err == nil {
			lat := make([]float64, 0, len(recs))
			for _, r := range recs {
				t := time.Now()
				if st.Append(r) != nil {
					break
				}
				lat = append(lat, us(time.Since(t)))
			}
			m["store.append_p50_us"] = median(lat)
			m["store.append_p99_us"] = percentile(lat, 99)
			_ = st.Close()
		}
	}

	// live: the streaming classifier alone, then the whole Observe.
	// classify: the batch classifier over the same texts, memo cold.
	var texts []string
	for _, r := range recs {
		if t := r.CommandText(); t != "" {
			texts = append(texts, t)
		}
	}
	if len(texts) > 0 {
		matcher := live.NewMatcher(classify.New())
		t0 = time.Now()
		for _, t := range texts {
			matcher.Classify(t)
		}
		m["live.classify_ns_per_text"] = float64(time.Since(t0)) / float64(len(texts))
		cls := classify.New()
		t0 = time.Now()
		cls.ClassifyAll(texts, 1)
		m["classify.batch_ns_per_text"] = float64(time.Since(t0)) / float64(len(texts))
	}
	if _, measured := m["live.observe_p50_us"]; !measured {
		p := live.NewPipeline(live.Options{})
		var all, dl []float64
		for _, r := range recs {
			t := time.Now()
			p.Observe(r)
			d := us(time.Since(t))
			all = append(all, d)
			if len(r.Downloads) > 0 {
				dl = append(dl, d)
			}
		}
		m["live.observe_p50_us"] = median(all)
		m["live.observe_p99_us"] = percentile(all, 99)
		m["live.observe_dl_p50_us"] = median(dl)
	}
}
