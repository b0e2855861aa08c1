package telnetd

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// testConfig is a login rule and a handler that answers each line
// "echo:<line>", changed by mutate if it is not nil.
func testConfig(mutate func(*Config)) Config {
	cfg := Config{
		Auth: func(user, pass string) bool { return user == "root" && pass != "root" },
		Handler: func(user string, rw io.ReadWriter) {
			fmt.Fprintf(rw, "# ")
			buf := make([]byte, 256)
			var line strings.Builder
			for {
				n, err := rw.Read(buf)
				if n > 0 {
					line.WriteString(string(buf[:n]))
					if i := strings.IndexByte(line.String(), '\n'); i >= 0 {
						cmd := strings.TrimSpace(line.String()[:i])
						line.Reset()
						if cmd == "exit" {
							return
						}
						fmt.Fprintf(rw, "echo:%s\r\n# ", cmd)
					}
				}
				if err != nil {
					return
				}
			}
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// startTelnet launches a server with testConfig's echo handler.
func startTelnet(t *testing.T, mutate func(*Config)) string {
	t.Helper()
	cfg := testConfig(mutate)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go acceptLoop(ln, func(nc net.Conn) error { return Serve(nc, cfg) })
	return ln.Addr().String()
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

// telnetClient is a minimal test client handling IAC negotiation.
type telnetClient struct {
	nc  net.Conn
	buf bytes.Buffer
}

func dialTelnet(t *testing.T, addr string) *telnetClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	t.Cleanup(func() { nc.Close() })
	return &telnetClient{nc: nc}
}

func (c *telnetClient) readUntil(t *testing.T, marker string) string {
	t.Helper()
	tmp := make([]byte, 256)
	for !strings.Contains(c.buf.String(), marker) {
		n, err := c.nc.Read(tmp)
		for i := 0; i < n; i++ {
			b := tmp[i]
			if b == 255 && i+2 < n { // IAC cmd opt: skip
				i += 2
				continue
			}
			if b < 240 {
				c.buf.WriteByte(b)
			}
		}
		if err != nil {
			t.Fatalf("read: %v (buffer %q)", err, c.buf.String())
		}
	}
	out := c.buf.String()
	c.buf.Reset()
	return out
}

func (c *telnetClient) send(t *testing.T, line string) {
	t.Helper()
	if _, err := c.nc.Write([]byte(line + "\r\n")); err != nil {
		t.Fatal(err)
	}
}

func TestLoginAndShell(t *testing.T) {
	addr := startTelnet(t, nil)
	c := dialTelnet(t, addr)
	banner := c.readUntil(t, "login: ")
	if !strings.Contains(banner, "Debian") {
		t.Errorf("banner = %q", banner)
	}
	c.send(t, "root")
	c.readUntil(t, "Password: ")
	c.send(t, "12345")
	c.readUntil(t, "# ")
	c.send(t, "uname")
	out := c.readUntil(t, "# ")
	if !strings.Contains(out, "echo:uname") {
		t.Errorf("shell echo = %q", out)
	}
}

func TestLoginFailureAndRetry(t *testing.T) {
	attempts := []string{}
	addr := startTelnet(t, func(cfg *Config) {
		cfg.OnAuthAttempt = func(user, pass string, ok bool) {
			attempts = append(attempts, fmt.Sprintf("%s/%s/%v", user, pass, ok))
		}
	})
	c := dialTelnet(t, addr)
	c.readUntil(t, "login: ")
	c.send(t, "root")
	c.readUntil(t, "Password: ")
	c.send(t, "root") // rejected
	out := c.readUntil(t, "login: ")
	if !strings.Contains(out, "Login incorrect") {
		t.Errorf("failure message = %q", out)
	}
	c.send(t, "root")
	c.readUntil(t, "Password: ")
	c.send(t, "better")
	c.readUntil(t, "# ")
	if len(attempts) != 2 || attempts[0] != "root/root/false" || attempts[1] != "root/better/true" {
		t.Errorf("attempts = %v", attempts)
	}
}

func TestMaxTriesDisconnect(t *testing.T) {
	addr := startTelnet(t, nil)
	c := dialTelnet(t, addr)
	for i := 0; i < maxAuthTries; i++ {
		c.readUntil(t, "login: ")
		c.send(t, "nobody")
		c.readUntil(t, "Password: ")
		c.send(t, "nothing")
	}
	// The next read should hit connection close.
	tmp := make([]byte, 64)
	c.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		if _, err := c.nc.Read(tmp); err != nil {
			return // closed as expected
		}
	}
}

func TestIACEscapingInOutput(t *testing.T) {
	addr := startTelnet(t, func(cfg *Config) {
		cfg.Handler = func(user string, rw io.ReadWriter) {
			// Emit a literal 0xFF byte: must be doubled on the wire.
			rw.Write([]byte{0x41, 0xFF, 0x42})
		}
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	// Do the login dance raw.
	raw := &telnetClient{nc: nc}
	raw.readUntil(t, "login: ")
	raw.send(t, "root")
	raw.readUntil(t, "Password: ")
	nc.Write([]byte("pw\r\n"))

	var got []byte
	tmp := make([]byte, 16)
	for !bytes.Contains(got, []byte{0x41, 0xFF, 0xFF, 0x42}) {
		n, err := nc.Read(tmp)
		got = append(got, tmp[:n]...)
		if err != nil {
			t.Fatalf("IAC byte not escaped; wire bytes: %x", got)
		}
	}
}

func TestConnTimeout(t *testing.T) {
	addr := startTelnet(t, func(cfg *Config) { cfg.ConnTimeout = 200 * time.Millisecond })
	c := dialTelnet(t, addr)
	c.readUntil(t, "login: ")
	// Idle past the deadline.
	tmp := make([]byte, 16)
	c.nc.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	for {
		if _, err := c.nc.Read(tmp); err != nil {
			break
		}
	}
	if time.Since(start) > 2*time.Second {
		t.Error("server did not enforce its session timeout")
	}
}

func TestSubnegotiationSkipped(t *testing.T) {
	addr := startTelnet(t, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	c := &telnetClient{nc: nc}
	c.readUntil(t, "login: ")
	// IAC SB NAWS ... IAC SE wrapped around the username.
	nc.Write([]byte{255, 250, 31, 0, 80, 0, 24, 255, 240})
	nc.Write([]byte("root\r\n"))
	c.readUntil(t, "Password: ")
	nc.Write([]byte("pw\r\n"))
	out := c.readUntil(t, "# ")
	if !strings.Contains(out, "#") {
		t.Errorf("login after subnegotiation failed: %q", out)
	}
}

func TestNegotiationReplies(t *testing.T) {
	addr := startTelnet(t, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	// Swallow the server's own negotiation + banner first.
	buf := make([]byte, 512)
	nc.Read(buf)
	// DO ECHO accepts the server's own WILL ECHO and needs no reply;
	// WILL NAWS is refused with DONT NAWS. Both replies would go out in
	// one write, so once DONT NAWS is in, a WONT ECHO would be too.
	nc.Write([]byte{255, 253, 1, 255, 251, 31})
	deadline := time.Now().Add(3 * time.Second)
	var got []byte
	for time.Now().Before(deadline) {
		n, err := nc.Read(buf)
		got = append(got, buf[:n]...)
		if bytes.Contains(got, []byte{255, 254, 31}) {
			if bytes.Contains(got, []byte{255, 252, 1}) {
				t.Errorf("DO ECHO answered WONT ECHO, withdrawing the server's offer; wire: %x", got)
			}
			return
		}
		if err != nil {
			break
		}
	}
	t.Errorf("negotiation replies missing; wire: %x", got)
}

func TestCarriageReturnNulLineEnding(t *testing.T) {
	// Some bot clients terminate lines with CR NUL instead of CRLF.
	addr := startTelnet(t, nil)
	c := dialTelnet(t, addr)
	c.readUntil(t, "login: ")
	c.nc.Write([]byte("root\r\x00\n"))
	c.readUntil(t, "Password: ")
	c.nc.Write([]byte("pw\r\n"))
	c.readUntil(t, "# ")
}

// TestConnTimeoutEnforced mirrors sshd's test of the same name: an idle
// Telnet connection must be dropped at the ConnTimeout deadline, not
// held open forever (the honeynet's 3-minute session cap).
func TestConnTimeoutEnforced(t *testing.T) {
	addr := startTelnet(t, func(cfg *Config) {
		cfg.ConnTimeout = 300 * time.Millisecond
	})
	c := dialTelnet(t, addr)
	c.readUntil(t, "login: ")
	c.send(t, "root")
	c.readUntil(t, "Password: ")
	c.send(t, "12345")
	c.readUntil(t, "# ")
	// Idle past the connection deadline: the server must drop us.
	start := time.Now()
	buf := make([]byte, 64)
	for {
		if _, err := c.nc.Read(buf); err != nil {
			break
		}
		if time.Since(start) > 3*time.Second {
			t.Fatal("expected connection teardown")
		}
	}
	if time.Since(start) > 3*time.Second {
		t.Errorf("teardown took %v", time.Since(start))
	}
}

// TestLongUsernameTailDropped: a 10 000-byte username is cut at
// maxLoginLine and the rest of its line dropped, so the password that
// follows answers the password prompt; the tail used to answer it, and
// then log in as the next username.
func TestLongUsernameTailDropped(t *testing.T) {
	type attempt struct {
		user, pass string
		ok         bool
	}
	attempts := make(chan attempt, 8) // more than any run of logins here makes
	addr := startTelnet(t, func(cfg *Config) {
		cfg.Auth = func(user, pass string) bool { return pass == "hunter2" }
		cfg.OnAuthAttempt = func(user, pass string, ok bool) { attempts <- attempt{user, pass, ok} }
	})
	c := dialTelnet(t, addr)
	c.readUntil(t, "login: ")
	name := strings.Repeat("x", 10000-len("root")) + "root"
	c.send(t, name)
	c.readUntil(t, "Password: ")
	c.send(t, "hunter2")
	c.readUntil(t, "# ")
	a := <-attempts
	if a.user != name[:maxLoginLine] || a.pass != "hunter2" || !a.ok {
		t.Errorf("first login attempt: user of %d bytes ending %q, password of %d bytes, ok %v; want the %d-byte head, hunter2, true",
			len(a.user), a.user[max(0, len(a.user)-8):], len(a.pass), a.ok, maxLoginLine)
	}
	select {
	case a := <-attempts:
		t.Errorf("a second login attempt as a user of %d bytes", len(a.user))
	default:
	}
}

// countedConn counts the writes made on a net.Conn.
type countedConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// dialCounted serves testConfig on one TCP connection whose server end
// counts its writes, and returns the client end.
func dialCounted(t *testing.T, mutate func(*Config)) (*telnetClient, *countedConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := dialTelnet(t, ln.Addr().String())
	nc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cc := &countedConn{Conn: nc}
	go Serve(cc, testConfig(mutate)) //nolint:errcheck
	return c, cc
}

// login answers the login prompts as root.
func (c *telnetClient) login(t *testing.T) {
	t.Helper()
	c.readUntil(t, "login: ")
	c.send(t, "root")
	c.readUntil(t, "Password: ")
	c.send(t, "12345")
	c.readUntil(t, "# ")
}

// TestCarriageReturnNulLogin: RFC 854's CR NUL ends a login line and a
// shell line, also when the NUL comes in a later read; the NUL is not
// data on the next line. The login used to wait for an LF that never
// came.
func TestCarriageReturnNulLogin(t *testing.T) {
	c := dialTelnet(t, startTelnet(t, nil))
	c.readUntil(t, "login: ")
	c.nc.Write([]byte("root\r\x00"))
	c.readUntil(t, "Password: ")
	c.nc.Write([]byte("pw\r\x00"))
	c.readUntil(t, "# ")
	c.nc.Write([]byte("pwd\r"))
	if out := c.readUntil(t, "# "); !strings.Contains(out, "echo:pwd\r\n") {
		t.Errorf("CR-ended line answered %q, want echo:pwd", out)
	}
	c.nc.Write([]byte("\x00id\r\x00"))
	if out := c.readUntil(t, "# "); !strings.Contains(out, "echo:id\r\n") {
		t.Errorf("line after a split CR NUL answered %q, want echo:id", out)
	}
}

// TestEchoesLoginNotPassword: with ECHO on, as offered, the server
// echoes the login name and each shell line, and of the password only
// its line end.
func TestEchoesLoginNotPassword(t *testing.T) {
	c := dialTelnet(t, startTelnet(t, nil))
	c.readUntil(t, "login: ")
	c.send(t, "root")
	if out := c.readUntil(t, "Password: "); out != "root\r\nPassword: " {
		t.Errorf("after the login name: %q, want its echo", out)
	}
	c.send(t, "s3cret")
	if out := c.readUntil(t, "# "); strings.Contains(out, "s3cret") {
		t.Errorf("password echoed: %q", out)
	}
	c.send(t, "uname")
	if out := c.readUntil(t, "# "); out != "uname\r\necho:uname\r\n# " {
		t.Errorf("after a shell line: %q, want its echo, then the answer", out)
	}
}

// TestEscapedIACIsData: IAC IAC in a login name is one 0xFF byte of
// it, not dropped.
func TestEscapedIACIsData(t *testing.T) {
	users := make(chan string, 1)
	c := dialTelnet(t, startTelnet(t, func(cfg *Config) {
		cfg.OnAuthAttempt = func(user, _ string, _ bool) { users <- user }
	}))
	c.readUntil(t, "login: ")
	c.nc.Write([]byte("ro\xff\xffot\r\n"))
	c.readUntil(t, "Password: ")
	c.send(t, "pw")
	if u := <-users; u != "ro\xffot" {
		t.Errorf("login name %q, want %q", u, "ro\xffot")
	}
}

// TestIACHeavyOutputOneWrite: 1 024 bytes of 0xFF output leave in one
// write, escaped; they used to cost two writes each.
func TestIACHeavyOutputOneWrite(t *testing.T) {
	c, cc := dialCounted(t, func(cfg *Config) {
		cfg.Handler = func(_ string, rw io.ReadWriter) { rw.Write(bytes.Repeat([]byte{0xff}, 1024)) }
	})
	c.readUntil(t, "login: ")
	c.send(t, "root")
	c.readUntil(t, "Password: ")
	before := cc.writes.Load()
	c.send(t, "12345")
	got, err := io.ReadAll(c.nc)
	if err != nil {
		t.Fatal(err)
	}
	if n := cc.writes.Load() - before; n != 1 || !bytes.Equal(got, append([]byte("\r\n"), bytes.Repeat([]byte{0xff}, 2048)...)) {
		t.Errorf("%d writes of %d bytes, want one write of the password's line end and 2 048 bytes of 0xFF", n, len(got))
	}
}

// TestOptionRequestsCostOneWrite: six option requests from the peer
// ahead of a shell line cost at most one write more than the line
// alone; each reply used to be a write of its own.
func TestOptionRequestsCostOneWrite(t *testing.T) {
	line := func(opts []byte) int64 {
		c, cc := dialCounted(t, nil)
		c.login(t)
		before := cc.writes.Load()
		c.nc.Write(opts)
		c.send(t, "uname")
		c.readUntil(t, "# ")
		return cc.writes.Load() - before
	}
	alone := line(nil)
	// DO TTYPE, DO NAWS, WILL TTYPE, WILL TSPEED, DO NEW-ENVIRON, WILL NEW-ENVIRON.
	with := line([]byte{255, 253, 24, 255, 253, 31, 255, 251, 24, 255, 251, 32, 255, 253, 39, 255, 251, 39})
	if with > alone+1 {
		t.Errorf("a line cost %d writes after six option requests, %d alone", with, alone)
	}
}

// TestNegotiationTable: the replies the decoder owes for each option
// command, answered only on a change of state for the offered options.
func TestNegotiationTable(t *testing.T) {
	for _, tc := range []struct {
		name     string
		in, want []byte
	}{
		{"DO ECHO, DO SGA accept the offers", []byte{iac, do, optEcho, iac, do, optSGA}, nil},
		{"DONT ECHO once", []byte{iac, dont, optEcho, iac, dont, optEcho}, []byte{iac, wont, optEcho}},
		{"DONT then DO ECHO", []byte{iac, dont, optEcho, iac, do, optEcho, iac, do, optEcho}, []byte{iac, wont, optEcho, iac, will, optEcho}},
		{"DO for another option", []byte{iac, do, 24}, []byte{iac, wont, 24}},
		{"WILL for any option", []byte{iac, will, 31, iac, will, optEcho}, []byte{iac, dont, 31, iac, dont, optEcho}},
		{"WONT and DONT for an option off", []byte{iac, wont, 31, iac, dont, 24}, nil},
		{"subnegotiation", []byte{iac, sb, 31, iac, iac, iac, do, 24, iac, se}, nil},
	} {
		c := &conn{}
		for _, b := range tc.in {
			if d, ok := c.step(b); ok {
				t.Errorf("%s: data byte %#x decoded", tc.name, d)
			}
		}
		if !bytes.Equal(c.out, tc.want) {
			t.Errorf("%s: replies %x, want %x", tc.name, c.out, tc.want)
		}
	}
}

// FuzzTelnetConn serves any byte stream over net.Pipe: the session
// must end within its deadline, and the server may write at most twice
// what it read plus its fixed prompts, which bounds what a peer can
// make the honeypot send.
func FuzzTelnetConn(f *testing.F) {
	f.Add([]byte("root\r\nhunter2\r\nuname\r\nexit\r\n"))
	f.Add([]byte("root\r\x00pw\r\x00\r\r\r\n\n"))
	f.Add([]byte{255, 253, 1, 255, 254, 1, 255, 251, 31, 255, 250, 31, 0, 80, 255, 255, 255, 240, 'a', '\r', 255, 255})
	f.Add(bytes.Repeat([]byte{255, 253, 24}, 100))
	f.Add([]byte("x\r\ny\r\nx\r\ny\r\nx\r\ny\r\nx\r\n"))
	const timeout = 10 * time.Millisecond
	f.Fuzz(func(t *testing.T, in []byte) {
		srv, cli := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			Serve(srv, Config{ //nolint:errcheck
				Auth:        func(_, pass string) bool { return pass != "root" },
				Handler:     func(_ string, rw io.ReadWriter) { io.Copy(io.Discard, rw) }, //nolint:errcheck
				ConnTimeout: timeout,
			})
		}()
		read := make(chan int64)
		go func() {
			n, _ := io.Copy(io.Discard, cli)
			read <- n
		}()
		cli.Write(in) //nolint:errcheck // cut short if the session ends first
		select {
		case <-done:
		case <-time.After(timeout + 5*time.Second):
			t.Fatal("session outlived its deadline")
		}
		cli.Close()
		// The banner, three rounds of prompts and failures, the offers.
		const fixed = 256
		if n := <-read; n > 2*int64(len(in))+fixed {
			t.Errorf("server wrote %d bytes for %d read", n, len(in))
		}
	})
}
