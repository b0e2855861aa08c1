package sshd

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"honeynet/internal/sshclient"
	"honeynet/internal/sshwire"
)

// startServer launches a Server on an ephemeral port and returns its
// address. The server echoes exec commands and serves a toy shell.
func startServer(t testing.TB, mutate func(*Config)) (string, *recorder) {
	t.Helper()
	hk, err := sshwire.GenerateHostKey()
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	cfg := Config{
		HostKey: hk,
		Auth: func(meta ConnMeta, user, password string) bool {
			return user == "root" && password != "root"
		},
		OnAuthAttempt: rec.onAuth,
		Handler: func(s *Session) {
			if s.Command != "" {
				fmt.Fprintf(s, "exec:%s", s.Command)
				_ = s.Exit(0)
				return
			}
			// Toy shell: prompt, echo each line until EOF.
			io.WriteString(s, "# ")
			buf := make([]byte, 1024)
			var line strings.Builder
			for {
				n, err := s.Read(buf)
				if n > 0 {
					line.WriteString(string(buf[:n]))
					for {
						txt := line.String()
						i := strings.IndexByte(txt, '\n')
						if i < 0 {
							break
						}
						cmd := strings.TrimSpace(txt[:i])
						line.Reset()
						line.WriteString(txt[i+1:])
						if cmd == "exit" {
							_ = s.Exit(0)
							return
						}
						fmt.Fprintf(s, "you said %s\n# ", cmd)
					}
				}
				if err != nil {
					_ = s.Exit(0)
					return
				}
			}
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go acceptLoop(ln, srv.HandleConn)
	return ln.Addr().String(), rec
}

// acceptLoop hands every connection on ln to handle, each on its own
// goroutine, until ln closes: what honeypot.Node's accept loop does in
// production, minus admission.
func acceptLoop(ln net.Listener, handle func(net.Conn) error) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go handle(c) //nolint:errcheck
	}
}

type recorder struct {
	mu       sync.Mutex
	attempts []string
}

func (r *recorder) onAuth(meta ConnMeta, user, password string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempts = append(r.attempts, fmt.Sprintf("%s:%s:%v", user, password, ok))
}

func (r *recorder) list() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.attempts...)
}

func TestNewValidatesConfig(t *testing.T) {
	hk, _ := sshwire.GenerateHostKey()
	auth := func(ConnMeta, string, string) bool { return true }
	handler := func(*Session) {}
	cases := []Config{
		{Auth: auth, Handler: handler},
		{HostKey: hk, Handler: handler},
		{HostKey: hk, Auth: auth},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New should reject incomplete config", i)
		}
	}
	if _, err := New(Config{HostKey: hk, Auth: auth, Handler: handler}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestExecRoundTrip(t *testing.T) {
	addr, _ := startServer(t, nil)
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "hunter2"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Exec("uname -a")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "exec:uname -a" {
		t.Errorf("output = %q", res.Output)
	}
	if !res.HasExit || res.ExitStatus != 0 {
		t.Errorf("exit = %v %d", res.HasExit, res.ExitStatus)
	}
}

func TestMultipleExecsOnOneConnection(t *testing.T) {
	addr, _ := startServer(t, nil)
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 5; i++ {
		cmd := fmt.Sprintf("echo %d", i)
		res, err := cli.Exec(cmd)
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if string(res.Output) != "exec:"+cmd {
			t.Errorf("exec %d: output %q", i, res.Output)
		}
	}
}

func TestInteractiveShell(t *testing.T) {
	addr, _ := startServer(t, nil)
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sh, err := cli.Shell()
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if _, err := sh.ReadUntil("# "); err != nil {
		t.Fatal(err)
	}
	out, err := sh.Run("hello world", "# ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "you said hello world") {
		t.Errorf("shell output = %q", out)
	}
	out, err = sh.Run("second", "# ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "you said second") {
		t.Errorf("shell output = %q", out)
	}
}

func TestAuthPolicyAndRecording(t *testing.T) {
	addr, rec := startServer(t, nil)

	// root:root is rejected by the honeypot-style policy.
	_, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "root"})
	if !errors.Is(err, sshclient.ErrAuthFailed) {
		t.Errorf("root:root should fail auth, got %v", err)
	}
	// Any other password is accepted.
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "admin"})
	if err != nil {
		t.Fatalf("root:admin should succeed: %v", err)
	}
	cli.Close()
	// Non-root user is rejected.
	_, err = sshclient.Dial(addr, sshclient.Config{User: "pi", Password: "raspberry"})
	if !errors.Is(err, sshclient.ErrAuthFailed) {
		t.Errorf("pi login should fail auth, got %v", err)
	}

	attempts := rec.list()
	want := []string{"root:root:false", "root:admin:true", "pi:raspberry:false"}
	if len(attempts) != len(want) {
		t.Fatalf("attempts = %v, want %v", attempts, want)
	}
	for i := range want {
		if attempts[i] != want[i] {
			t.Errorf("attempt %d = %q, want %q", i, attempts[i], want[i])
		}
	}
}

func TestMaxAuthTries(t *testing.T) {
	addr, _ := startServer(t, func(c *Config) { c.MaxAuthTries = 2 })
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn, err := sshwire.ClientHandshake(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.RequestService("ssh-userauth"); err != nil {
		t.Fatal(err)
	}
	try := func(pw string) ([]byte, error) {
		b := sshwire.NewBuilder(64)
		b.Byte(sshwire.MsgUserauthRequest)
		b.StringS("root")
		b.StringS("ssh-connection")
		b.StringS("password")
		b.Bool(false)
		b.StringS(pw)
		if err := conn.WritePacket(b.Bytes()); err != nil {
			return nil, err
		}
		return conn.ReadPacket()
	}
	if p, err := try("root"); err != nil || p[0] != sshwire.MsgUserauthFailure {
		t.Fatalf("first failure: %v %v", p, err)
	}
	// Second failure exceeds MaxAuthTries=2 -> disconnect.
	_, err = try("root")
	var d *sshwire.DisconnectMsg
	if !errors.As(err, &d) {
		t.Errorf("want disconnect after max tries, got %v", err)
	}
}

func TestSessionMetaAndEnv(t *testing.T) {
	metaCh := make(chan *Session, 1)
	addr, _ := startServer(t, func(c *Config) {
		c.Handler = func(s *Session) {
			metaCh <- s
			_ = s.Exit(0)
		}
	})
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "abc", Version: "SSH-2.0-EvilBot"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Exec("id"); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-metaCh:
		if s.Meta.User != "root" {
			t.Errorf("user = %q", s.Meta.User)
		}
		if s.Meta.ClientVersion != "SSH-2.0-EvilBot" {
			t.Errorf("client version = %q", s.Meta.ClientVersion)
		}
		if s.Command != "id" {
			t.Errorf("command = %q", s.Command)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never ran")
	}
}

func TestConnTimeoutEnforced(t *testing.T) {
	addr, _ := startServer(t, func(c *Config) {
		c.ConnTimeout = 300 * time.Millisecond
	})
	cli, err := sshclient.Dial(addr, sshclient.Config{User: "root", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sh, err := cli.Shell()
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if _, err := sh.ReadUntil("# "); err != nil {
		t.Fatal(err)
	}
	// Idle past the connection deadline: the server must drop us.
	start := time.Now()
	_, err = sh.ReadUntil("never-appears")
	if err == nil {
		t.Fatal("expected connection teardown")
	}
	if time.Since(start) > 3*time.Second {
		t.Errorf("teardown took %v", time.Since(start))
	}
}

func TestUnsupportedChannelTypeRejected(t *testing.T) {
	addr, _ := startServer(t, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cli, err := sshclient.NewClientConn(nc, sshclient.Config{User: "root", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.OpenRaw("direct-tcpip", nil)
	var oce *sshwire.OpenChannelError
	if !errors.As(err, &oce) {
		t.Fatalf("want OpenChannelError, got %v", err)
	}
	if oce.Reason != sshwire.OpenUnknownChannelType {
		t.Errorf("reason = %d", oce.Reason)
	}
}

func TestPtyEnvAndWindowChangeRequests(t *testing.T) {
	sessCh := make(chan *Session, 1)
	addr, _ := startServer(t, func(c *Config) {
		c.Handler = func(s *Session) {
			sessCh <- s
			_ = s.Exit(0)
		}
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cli, err := sshclient.NewClientConn(nc, sshclient.Config{User: "root", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ch, err := cli.OpenRaw("session", nil)
	if err != nil {
		t.Fatal(err)
	}
	// env, pty-req, window-change, then shell.
	env := sshwire.NewBuilder(32)
	env.StringS("LANG").StringS("C.UTF-8")
	if ok, err := ch.SendRequest("env", true, env.Bytes()); err != nil || !ok {
		t.Fatalf("env request: %v %v", ok, err)
	}
	pty := sshwire.NewBuilder(64)
	pty.StringS("vt100").Uint32(132).Uint32(43).Uint32(0).Uint32(0).StringS("")
	if ok, err := ch.SendRequest("pty-req", true, pty.Bytes()); err != nil || !ok {
		t.Fatalf("pty request: %v %v", ok, err)
	}
	wc := sshwire.NewBuilder(16)
	wc.Uint32(80).Uint32(24).Uint32(0).Uint32(0)
	if ok, err := ch.SendRequest("window-change", true, wc.Bytes()); err != nil || !ok {
		t.Fatalf("window-change request: %v %v", ok, err)
	}
	if ok, err := ch.SendRequest("shell", true, nil); err != nil || !ok {
		t.Fatalf("shell request: %v %v", ok, err)
	}
	select {
	case s := <-sessCh:
		if !s.PTY || s.Term != "vt100" {
			t.Errorf("pty = %v term = %q", s.PTY, s.Term)
		}
		if s.Env["LANG"] != "C.UTF-8" {
			t.Errorf("env = %v", s.Env)
		}
		if !s.IsShell || s.Command != "" {
			t.Errorf("session type: shell=%v cmd=%q", s.IsShell, s.Command)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("handler never ran")
	}
}

func TestSubsystemAndUnknownRequestsRejected(t *testing.T) {
	addr, _ := startServer(t, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cli, err := sshclient.NewClientConn(nc, sshclient.Config{User: "root", Password: "x"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ch, err := cli.OpenRaw("session", nil)
	if err != nil {
		t.Fatal(err)
	}
	sub := sshwire.NewBuilder(16)
	sub.StringS("sftp")
	ok, err := ch.SendRequest("subsystem", true, sub.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("sftp subsystem must be rejected (the paper's capture gap)")
	}
	ok, err = ch.SendRequest("x11-req", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("unknown request must be rejected")
	}
}

func TestNoneAuthAdvertisesPassword(t *testing.T) {
	addr, _ := startServer(t, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn, err := sshwire.ClientHandshake(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.RequestService("ssh-userauth"); err != nil {
		t.Fatal(err)
	}
	b := sshwire.NewBuilder(64)
	b.Byte(sshwire.MsgUserauthRequest)
	b.StringS("root")
	b.StringS("ssh-connection")
	b.StringS("none")
	if err := conn.WritePacket(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	p, err := conn.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	r := sshwire.NewReader(p)
	if tp := r.Byte(); tp != sshwire.MsgUserauthFailure {
		t.Fatalf("reply = %s", sshwire.MsgName(tp))
	}
	methods := r.NameList()
	if len(methods) != 1 || methods[0] != "password" {
		t.Errorf("continue-methods = %v", methods)
	}
}

func TestPublickeyAuthRejected(t *testing.T) {
	addr, _ := startServer(t, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn, err := sshwire.ClientHandshake(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.RequestService("ssh-userauth"); err != nil {
		t.Fatal(err)
	}
	b := sshwire.NewBuilder(64)
	b.Byte(sshwire.MsgUserauthRequest)
	b.StringS("root")
	b.StringS("ssh-connection")
	b.StringS("publickey")
	b.Bool(false)
	b.StringS("ssh-ed25519")
	b.String(make([]byte, 51))
	if err := conn.WritePacket(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	p, err := conn.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != sshwire.MsgUserauthFailure {
		t.Errorf("publickey must fail (section 3.2: not supported), got %s", sshwire.MsgName(p[0]))
	}
}

func TestWrongServiceDisconnects(t *testing.T) {
	addr, _ := startServer(t, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	conn, err := sshwire.ClientHandshake(nc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.RequestService("ssh-userauth"); err != nil {
		t.Fatal(err)
	}
	b := sshwire.NewBuilder(64)
	b.Byte(sshwire.MsgUserauthRequest)
	b.StringS("root")
	b.StringS("no-such-service")
	b.StringS("password")
	b.Bool(false)
	b.StringS("x")
	if err := conn.WritePacket(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	_, err = conn.ReadPacket()
	var d *sshwire.DisconnectMsg
	if !errors.As(err, &d) {
		t.Errorf("want disconnect for bad service, got %v", err)
	}
}
