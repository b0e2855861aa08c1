package sshwire

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// handshakePair establishes a server/client transport pair over an
// in-process TCP connection and returns both ends.
func handshakePair(t *testing.T, serverCfg, clientCfg *Config) (*Conn, *Conn) {
	t.Helper()
	srv, cli, _, _ := countedPair(t, serverCfg, clientCfg)
	return srv, cli
}

// countConn counts the Write calls made on a net.Conn.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countedPair is handshakePair that also returns each end's net.Conn,
// wrapped to count its writes.
func countedPair(t *testing.T, serverCfg, clientCfg *Config) (srv, cli *Conn, srvW, cliW *countConn) {
	t.Helper()
	if serverCfg == nil {
		hk, err := GenerateHostKey()
		if err != nil {
			t.Fatal(err)
		}
		serverCfg = &Config{HostKey: hk}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type result struct {
		conn *Conn
		err  error
	}
	srvW = &countConn{}
	srvCh := make(chan result, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srvCh <- result{nil, err}
			return
		}
		srvW.Conn = c
		sc, err := ServerHandshake(srvW, serverCfg)
		srvCh <- result{sc, err}
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cliW = &countConn{Conn: nc}
	cc, err := ClientHandshake(cliW, clientCfg)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	sr := <-srvCh
	if sr.err != nil {
		t.Fatalf("server handshake: %v", sr.err)
	}
	t.Cleanup(func() {
		cc.Close()
		sr.conn.Close()
	})
	return sr.conn, cc, srvW, cliW
}

func TestHandshakeAndEncryptedExchange(t *testing.T) {
	srv, cli := handshakePair(t, nil, nil)

	if !bytes.Equal(srv.SessionID(), cli.SessionID()) {
		t.Error("session IDs differ")
	}
	if len(srv.SessionID()) != 32 {
		t.Errorf("session ID length = %d, want 32", len(srv.SessionID()))
	}
	if !bytes.Equal(srv.ServerHostKeyBlob(), cli.ServerHostKeyBlob()) {
		t.Error("host key blobs differ")
	}
	if srv.RemoteVersion() != DefaultClientVersion {
		t.Errorf("server saw version %q", srv.RemoteVersion())
	}
	if cli.RemoteVersion() != DefaultServerVersion {
		t.Errorf("client saw version %q", cli.RemoteVersion())
	}

	// Ping-pong several packets in both directions through the
	// post-NEWKEYS ciphers.
	for i := 0; i < 10; i++ {
		msg := append([]byte{200}, bytes.Repeat([]byte{byte(i)}, i*37)...)
		if err := cli.WritePacket(msg); err != nil {
			t.Fatal(err)
		}
		got, err := srv.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round %d: payload mismatch", i)
		}
		if err := srv.WritePacket(msg); err != nil {
			t.Fatal(err)
		}
		got, err = cli.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round %d: reverse payload mismatch", i)
		}
	}
}

func TestHandshakeCustomVersions(t *testing.T) {
	hk, _ := GenerateHostKey()
	srv, cli := handshakePair(t,
		&Config{HostKey: hk, Version: "SSH-2.0-OpenSSH_7.4"},
		&Config{Version: "SSH-2.0-libssh2_1.8.0"})
	if cli.RemoteVersion() != "SSH-2.0-OpenSSH_7.4" {
		t.Errorf("client saw %q", cli.RemoteVersion())
	}
	if srv.RemoteVersion() != "SSH-2.0-libssh2_1.8.0" {
		t.Errorf("server saw %q", srv.RemoteVersion())
	}
}

func TestHostKeyCheckRejection(t *testing.T) {
	hk, _ := GenerateHostKey()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = ServerHandshake(c, &Config{HostKey: hk})
		c.Close()
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	wantErr := errors.New("untrusted host")
	_, err = ClientHandshake(nc, &Config{
		HostKeyCheck: func([]byte) error { return wantErr },
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("handshake error = %v, want %v", err, wantErr)
	}
}

func TestServiceRequestAccept(t *testing.T) {
	srv, cli := handshakePair(t, nil, nil)
	done := make(chan error, 1)
	go func() {
		name, err := srv.AcceptService("ssh-userauth")
		if err == nil && name != "ssh-userauth" {
			err = errors.New("wrong service name: " + name)
		}
		done <- err
	}()
	if err := cli.RequestService("ssh-userauth"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestServiceRequestDenied(t *testing.T) {
	srv, cli := handshakePair(t, nil, nil)
	go func() {
		_, _ = srv.AcceptService("ssh-userauth")
	}()
	err := cli.RequestService("ssh-connection")
	if err == nil {
		t.Fatal("disallowed service should fail")
	}
	var d *DisconnectMsg
	if !errors.As(err, &d) {
		t.Errorf("want DisconnectMsg error, got %T: %v", err, err)
	}
}

func TestIgnoreAndDebugAreTransparent(t *testing.T) {
	srv, cli := handshakePair(t, nil, nil)
	if err := cli.WritePacket([]byte{MsgIgnore, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	dbg := NewBuilder(16)
	dbg.Byte(MsgDebug).Bool(false).StringS("dbg").StringS("")
	if err := cli.WritePacket(dbg.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := cli.WritePacket([]byte{123}); err != nil {
		t.Fatal(err)
	}
	got, err := srv.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 123 {
		t.Errorf("got message %d, want 123", got[0])
	}
}

func TestDisconnectPropagates(t *testing.T) {
	srv, cli := handshakePair(t, nil, nil)
	go func() {
		_ = srv.Disconnect(DisconnectByApplication, "goodbye")
	}()
	_, err := cli.ReadPacket()
	var d *DisconnectMsg
	if !errors.As(err, &d) {
		t.Fatalf("want DisconnectMsg, got %v", err)
	}
	if d.Reason != DisconnectByApplication || d.Description != "goodbye" {
		t.Errorf("got %+v", d)
	}
}

func TestHandshakeTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// Accept but never speak: client must time out.
		defer c.Close()
		time.Sleep(2 * time.Second)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	start := time.Now()
	_, err = ClientHandshake(nc, &Config{HandshakeTimeout: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("handshake against silent peer should fail")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timeout took %v, want ~100ms", elapsed)
	}
}

func TestServerRequiresHostKey(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	if _, err := ServerHandshake(c1, &Config{}); err == nil {
		t.Error("server handshake without host key should fail")
	}
}

func TestVersionExchangeSkipsBannerLines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// Pre-version banner lines are legal from servers.
		c.Write([]byte("Welcome to the machine\r\nNo really\r\nSSH-2.0-TestServer\r\n"))
		// Not a full server; the client will fail after versions, which
		// is fine — we only check version parsing.
		buf := make([]byte, 4096)
		c.Read(buf)
		time.Sleep(50 * time.Millisecond)
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	got, err := exchangeVersions(nc, br, DefaultClientVersion, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != "SSH-2.0-TestServer" {
		t.Errorf("version = %q", got)
	}
}

func BenchmarkTransportThroughput(b *testing.B) {
	hk, _ := GenerateHostKey()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	srvCh := make(chan *Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		sc, err := ServerHandshake(c, &Config{HostKey: hk})
		if err != nil {
			return
		}
		srvCh <- sc
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	cli, err := ClientHandshake(nc, nil)
	if err != nil {
		b.Fatal(err)
	}
	srv := <-srvCh
	defer cli.Close()
	defer srv.Close()

	payload := make([]byte, 4096)
	payload[0] = 200
	go func() {
		for {
			if _, err := srv.ReadPacket(); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cli.WritePacket(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNegotiatedAlgorithmsExposed(t *testing.T) {
	hk, _ := GenerateHostKey()
	// Client prefers aes256-ctr + hmac-sha2-512; server accepts both.
	srv, cli := handshakePair(t,
		&Config{HostKey: hk},
		&Config{Ciphers: []string{CipherAES256CTR, CipherAES128CTR},
			MACs: []string{MACHmacSHA512, MACHmacSHA256}})
	if got := cli.Algorithms(); got.C2SCipher != CipherAES256CTR || got.C2SMAC != MACHmacSHA512 {
		t.Errorf("client negotiated %+v, want aes256-ctr/hmac-sha2-512", got)
	}
	if got := srv.Algorithms(); got.S2CCipher != CipherAES256CTR || got.S2CMAC != MACHmacSHA512 {
		t.Errorf("server negotiated %+v", got)
	}
	// Data still flows over the stronger suite.
	msg := []byte{210, 1, 2, 3}
	if err := cli.WritePacket(msg); err != nil {
		t.Fatal(err)
	}
	got, err := srv.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("payload mismatch over aes256")
	}
}

func TestAsymmetricCipherDirections(t *testing.T) {
	// Client offers only aes256 for both directions; server offers both:
	// negotiation lands on aes256 both ways (client preference).
	hk, _ := GenerateHostKey()
	srv, cli := handshakePair(t,
		&Config{HostKey: hk},
		&Config{Ciphers: []string{CipherAES256CTR}})
	_ = srv
	a := cli.Algorithms()
	if a.C2SCipher != CipherAES256CTR || a.S2CCipher != CipherAES256CTR {
		t.Errorf("negotiated = %+v", a)
	}
}

func TestNoCommonCipherFailsHandshake(t *testing.T) {
	hk, _ := GenerateHostKey()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = ServerHandshake(c, &Config{HostKey: hk, Ciphers: []string{CipherAES128CTR}})
	}()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_, err = ClientHandshake(nc, &Config{Ciphers: []string{CipherAES256CTR},
		HandshakeTimeout: 2 * time.Second})
	if err == nil {
		t.Fatal("disjoint cipher sets must fail the handshake")
	}
}
