package sshwire

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"time"
)

// muxPair builds two muxes over an established transport pair.
func muxPair(t *testing.T) (*Mux, *Mux) {
	t.Helper()
	srv, cli := handshakePair(t, nil, nil)
	ms := NewMux(srv)
	mc := NewMux(cli)
	t.Cleanup(func() {
		mc.Close()
		ms.Close()
	})
	return ms, mc
}

func TestMuxLargeTransferFragments(t *testing.T) {
	ms, mc := muxPair(t)

	// Server: accept the channel and echo everything back.
	go func() {
		nc, ok := <-ms.Incoming()
		if !ok {
			return
		}
		ch, err := nc.Accept()
		if err != nil {
			return
		}
		go func() {
			for req := range ch.Requests() {
				_ = req.Reply(false)
			}
		}()
		buf := make([]byte, 64*1024)
		for {
			n, err := ch.Read(buf)
			if n > 0 {
				if _, werr := ch.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				ch.CloseWrite()
				ch.Close()
				return
			}
		}
	}()

	ch, err := mc.OpenChannel("session", nil)
	if err != nil {
		t.Fatal(err)
	}
	// 8 MiB: far beyond the 32 KiB max packet and the 2 MiB window —
	// exercises fragmentation and window-adjust accounting.
	payload := make([]byte, 8<<20)
	rand.New(rand.NewSource(1)).Read(payload)

	go func() {
		if _, err := ch.Write(payload); err != nil {
			return
		}
		ch.CloseWrite()
	}()

	var got bytes.Buffer
	buf := make([]byte, 64*1024)
	deadline := time.Now().Add(30 * time.Second)
	for got.Len() < len(payload) && time.Now().Before(deadline) {
		n, err := ch.Read(buf)
		got.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if got.Len() != len(payload) {
		t.Fatalf("echoed %d of %d bytes", got.Len(), len(payload))
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Error("payload corrupted in transit")
	}
}

func TestMuxChannelReject(t *testing.T) {
	ms, mc := muxPair(t)
	go func() {
		nc, ok := <-ms.Incoming()
		if !ok {
			return
		}
		_ = nc.Reject(OpenAdministrativelyProhibited, "not here")
	}()
	_, err := mc.OpenChannel("direct-tcpip", nil)
	oce, ok := err.(*OpenChannelError)
	if !ok {
		t.Fatalf("err = %v", err)
	}
	if oce.Reason != OpenAdministrativelyProhibited || oce.Message != "not here" {
		t.Errorf("rejection = %+v", oce)
	}
	if oce.Error() == "" {
		t.Error("empty error string")
	}
}

func TestMuxGlobalRequestObservedAndRefused(t *testing.T) {
	ms, mc := muxPair(t)
	_ = ms

	// Send a tcpip-forward global request from the client's raw conn.
	b := NewBuilder(64)
	b.Byte(MsgGlobalRequest)
	b.StringS("tcpip-forward")
	b.Bool(true)
	b.StringS("0.0.0.0")
	b.Uint32(8080)
	if err := mc.Conn().WritePacket(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	// The server mux must surface it...
	select {
	case gr := <-ms.GlobalRequests():
		if gr.Type != "tcpip-forward" || !gr.WantReply {
			t.Errorf("global request = %+v", gr)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("global request not observed")
	}
	// ...and have refused it on the wire; the client mux sees nothing on
	// its channels, so probe by opening a channel (still functional).
	go func() {
		nc, ok := <-ms.Incoming()
		if ok {
			ch, _ := nc.Accept()
			if ch != nil {
				ch.Close()
			}
		}
	}()
	if _, err := mc.OpenChannel("session", nil); err != nil {
		t.Fatalf("mux unusable after global request: %v", err)
	}
}

func TestMuxCloseIdempotentAndEOF(t *testing.T) {
	ms, mc := muxPair(t)
	acc := make(chan *Channel, 1)
	go func() {
		nc, ok := <-ms.Incoming()
		if !ok {
			return
		}
		ch, err := nc.Accept()
		if err == nil {
			acc <- ch
		}
	}()
	ch, err := mc.OpenChannel("session", nil)
	if err != nil {
		t.Fatal(err)
	}
	srvCh := <-acc

	// CloseWrite twice is fine; the peer then reads EOF.
	if err := ch.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := ch.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := srvCh.Read(buf); err != io.EOF {
		t.Errorf("peer read after EOF = %v, want io.EOF", err)
	}
	// Close twice is fine too.
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMuxWaitReturnsOnClose(t *testing.T) {
	ms, mc := muxPair(t)
	done := make(chan error, 1)
	go func() { done <- ms.Wait() }()
	mc.Close()
	ms.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Wait should return the teardown error")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Wait never returned")
	}
}

func TestMuxExitStatusDelivered(t *testing.T) {
	ms, mc := muxPair(t)
	go func() {
		nc, ok := <-ms.Incoming()
		if !ok {
			return
		}
		ch, err := nc.Accept()
		if err != nil {
			return
		}
		_ = ch.SendExitStatus(7)
		_ = ch.Close()
	}()
	ch, err := mc.OpenChannel("session", nil)
	if err != nil {
		t.Fatal(err)
	}
	for req := range ch.Requests() {
		if req.Type == "exit-status" {
			r := NewReader(req.Payload)
			if got := r.Uint32(); got != 7 {
				t.Errorf("exit status = %d", got)
			}
			return
		}
	}
	t.Fatal("exit-status request never arrived")
}

// TestSendRequestReplyThenCloseBeforeSelect drives the schedule that
// used to lose the wake-up: the mux loop dispatches the peer's reply and
// then its close before SendRequest reaches its select. The buffered
// reply must still be returned — not ErrMuxClosed, and not a wait for
// the whole connection to end.
func TestSendRequestReplyThenCloseBeforeSelect(t *testing.T) {
	ms, mc := muxPair(t)
	go func() {
		if nc, ok := <-ms.Incoming(); ok {
			_, _ = nc.Accept()
		}
	}()
	ch, err := mc.OpenChannel("session", nil)
	if err != nil {
		t.Fatal(err)
	}
	// What the read loop does for MsgChannelSuccess, then MsgChannelClose.
	ch.deliverReply(true)
	ch.markClosed()

	type result struct {
		ok  bool
		err error
	}
	done := make(chan result, 1)
	go func() {
		ok, err := ch.SendRequest("exec", true, nil)
		done <- result{ok, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || !r.ok {
			t.Fatalf("SendRequest = (%v, %v), want the buffered reply (true, nil)", r.ok, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SendRequest never returned: reply lost behind the close")
	}
	// With the reply consumed, the closed channel reports itself.
	if _, err := ch.SendRequest("exec", true, nil); err != ErrMuxClosed {
		t.Fatalf("SendRequest on a closed channel = %v, want ErrMuxClosed", err)
	}
}
