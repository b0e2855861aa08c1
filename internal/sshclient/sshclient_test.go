package sshclient

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"honeynet/internal/sshd"
	"honeynet/internal/sshwire"
)

// startEcho runs an sshd whose sessions echo exec commands and whose
// shell emits a prompt.
func startEcho(t *testing.T) string {
	t.Helper()
	hk, err := sshwire.GenerateHostKey()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sshd.New(sshd.Config{
		HostKey: hk,
		Auth:    func(_ sshd.ConnMeta, user, pass string) bool { return pass == "letmein" },
		Handler: func(s *sshd.Session) {
			if s.Command != "" {
				fmt.Fprintf(s, "ran:%s", s.Command)
				_ = s.Exit(42)
				return
			}
			io.WriteString(s, "$ ")
			buf := make([]byte, 256)
			for {
				n, err := s.Read(buf)
				if n > 0 {
					io.WriteString(s, "seen\n$ ")
				}
				if err != nil {
					_ = s.Exit(0)
					return
				}
			}
		},
	})
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

func TestDialRejectsBadAddress(t *testing.T) {
	_, err := Dial("127.0.0.1:1", Config{User: "root", Password: "x", Timeout: 500 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to closed port must fail")
	}
}

func TestAuthFailureSurfaced(t *testing.T) {
	addr := startEcho(t)
	_, err := Dial(addr, Config{User: "root", Password: "wrong"})
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("err = %v, want ErrAuthFailed", err)
	}
}

func TestExecExitStatus(t *testing.T) {
	addr := startEcho(t)
	cli, err := Dial(addr, Config{User: "root", Password: "letmein"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	res, err := cli.Exec("id")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "ran:id" {
		t.Errorf("output = %q", res.Output)
	}
	if !res.HasExit || res.ExitStatus != 42 {
		t.Errorf("exit = %v/%d, want 42", res.HasExit, res.ExitStatus)
	}
}

func TestServerVersionVisible(t *testing.T) {
	addr := startEcho(t)
	cli, err := Dial(addr, Config{User: "root", Password: "letmein"})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if v := cli.ServerVersion(); !strings.HasPrefix(v, "SSH-2.0-") {
		t.Errorf("server version = %q", v)
	}
}

func TestShellReadUntilPartialOnClose(t *testing.T) {
	addr := startEcho(t)
	cli, err := Dial(addr, Config{User: "root", Password: "letmein"})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := cli.Shell()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.ReadUntil("$ "); err != nil {
		t.Fatal(err)
	}
	out, err := sh.Run("anything", "$ ")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "seen") {
		t.Errorf("out = %q", out)
	}
	// Closing the client ends the shell; ReadUntil returns what it has.
	cli.Close()
	_, err = sh.ReadUntil("never")
	if err == nil {
		t.Error("ReadUntil after close should error")
	}
}

func TestConfigTimeoutDefault(t *testing.T) {
	c := Config{}
	if c.timeout() != 30*time.Second {
		t.Errorf("default timeout = %v", c.timeout())
	}
	c.Timeout = time.Second
	if c.timeout() != time.Second {
		t.Errorf("explicit timeout = %v", c.timeout())
	}
}
