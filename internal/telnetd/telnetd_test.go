package telnetd

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// startTelnet launches a server with an echo handler.
func startTelnet(t *testing.T, mutate func(*Config)) string {
	t.Helper()
	cfg := Config{
		Banner: "Debian GNU/Linux 11",
		Auth:   func(user, pass string) bool { return user == "root" && pass != "root" },
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

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config must be rejected")
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
	// DO ECHO must be answered WONT ECHO; WILL NAWS with DONT NAWS.
	nc.Write([]byte{255, 253, 1, 255, 251, 31})
	deadline := time.Now().Add(3 * time.Second)
	var got []byte
	for time.Now().Before(deadline) {
		n, err := nc.Read(buf)
		got = append(got, buf[:n]...)
		if bytes.Contains(got, []byte{255, 252, 1}) && bytes.Contains(got, []byte{255, 254, 31}) {
			return // both replies observed
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
