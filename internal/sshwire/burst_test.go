package sshwire

import (
	"bytes"
	"io"
	"testing"
	"time"
)

func TestWritePacketIsOneWrite(t *testing.T) {
	srv, cli, _, cliW := countedPair(t, nil, nil)
	got := reader(srv)

	payloads := [][]byte{{200}, bytes.Repeat([]byte{201}, 1000), append([]byte{202}, make([]byte, maxPacket-1)...)}
	for _, p := range payloads {
		before := cliW.writes.Load()
		if err := cli.WritePacket(p); err != nil {
			t.Fatal(err)
		}
		if n := cliW.writes.Load() - before; n != 1 {
			t.Fatalf("WritePacket of %d bytes made %d writes, want 1", len(p), n)
		}
	}
	// An over-size payload writes nothing and leaves the stream in step.
	before := cliW.writes.Load()
	if err := cli.WritePacket(make([]byte, maxPacket+1)); err != errPacketTooBig {
		t.Fatalf("over-size payload: err = %v", err)
	}
	if n := cliW.writes.Load() - before; n != 0 {
		t.Fatalf("over-size payload made %d writes", n)
	}
	payloads = append(payloads, []byte{203, 1})
	if err := cli.WritePacket(payloads[len(payloads)-1]); err != nil {
		t.Fatal(err)
	}
	for i, want := range payloads {
		select {
		case p := <-got:
			if !bytes.Equal(p, want) {
				t.Fatalf("packet %d: got %d bytes, want %d", i, len(p), len(want))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("packet %d never arrived", i)
		}
	}
	if c := cap(cli.wbuf); c > maxKeptWriteBuf {
		t.Errorf("write buffer kept at %d bytes after a large packet", c)
	}
}

// exitPair accepts one session channel on a server Mux, opened from a
// raw client Conn that reads the server's packets itself.
func exitPair(t *testing.T) (*Channel, *Conn, *countConn) {
	t.Helper()
	srv, cli, srvW, _ := countedPair(t, nil, nil)
	ms := NewMux(srv)
	t.Cleanup(func() { ms.Close() })

	b := NewBuilder(32)
	b.Byte(MsgChannelOpen)
	b.StringS("session")
	b.Uint32(0)
	b.Uint32(defaultWindow)
	b.Uint32(defaultMaxPacket)
	if err := cli.WritePacket(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	var nc *NewChannel
	select {
	case nc = <-ms.Incoming():
	case <-time.After(5 * time.Second):
		t.Fatal("channel open never arrived")
	}
	ch, err := nc.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if p, err := cli.ReadPacket(); err != nil || p[0] != MsgChannelOpenConfirmation {
		t.Fatalf("open confirmation: %v %v", p, err)
	}
	return ch, cli, srvW
}

// expectPackets reads len(want) packets from c and checks their message
// types, each addressed to client channel 0.
func expectPackets(t *testing.T, c *Conn, want ...byte) [][]byte {
	t.Helper()
	var got [][]byte
	for i, w := range want {
		p, err := c.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		r := NewReader(p[1:])
		if p[0] != w || r.Uint32() != 0 {
			t.Fatalf("packet %d: got %s, want %s to channel 0", i, MsgName(p[0]), MsgName(w))
		}
		got = append(got, bytes.Clone(p))
	}
	return got
}

func checkExitStatus(t *testing.T, p []byte, want uint32) {
	t.Helper()
	r := NewReader(p[1:])
	r.Uint32()
	name, wantReply, status := r.StringS(), r.Bool(), r.Uint32()
	if r.Err() != nil || name != "exit-status" || wantReply || status != want {
		t.Fatalf("exit request = %q reply=%v status=%d (%v)", name, wantReply, status, r.Err())
	}
}

func TestChannelExitIsOneWrite(t *testing.T) {
	ch, cli, srvW := exitPair(t)
	before := srvW.writes.Load()
	if err := ch.Exit(3); err != nil {
		t.Fatal(err)
	}
	if n := srvW.writes.Load() - before; n != 1 {
		t.Fatalf("Exit made %d writes, want 1", n)
	}
	got := expectPackets(t, cli, MsgChannelRequest, MsgChannelEOF, MsgChannelClose)
	checkExitStatus(t, got[0], 3)

	// Once CLOSE is sent, Exit and Close write nothing.
	before = srvW.writes.Load()
	if err := ch.Exit(4); err != nil {
		t.Fatal(err)
	}
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srvW.writes.Load() - before; n != 0 {
		t.Fatalf("Exit after close made %d writes", n)
	}
}

func TestExitAfterCloseWriteSendsNoSecondEOF(t *testing.T) {
	ch, cli, _ := exitPair(t)
	if err := ch.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := ch.Exit(0); err != nil {
		t.Fatal(err)
	}
	// Any second EOF would arrive where CLOSE is expected.
	got := expectPackets(t, cli, MsgChannelEOF, MsgChannelRequest, MsgChannelClose)
	checkExitStatus(t, got[1], 0)
}

// TestWindowAdjustOpenSSHRule pushes 8 MiB through one channel: the
// receiver re-credits the window in adjusts of more than three maximum
// packets, so the sender never stalls and sees few adjusts.
func TestWindowAdjustOpenSSHRule(t *testing.T) {
	srv, cli, srvW, _ := countedPair(t, nil, nil)
	ms, mc := NewMux(srv), NewMux(cli)
	t.Cleanup(func() {
		mc.Close()
		ms.Close()
	})
	accepted := make(chan *Channel, 1)
	go func() {
		if nc, ok := <-ms.Incoming(); ok {
			ch, _ := nc.Accept()
			accepted <- ch
		}
	}()
	ch, err := mc.OpenChannel("session", nil)
	if err != nil {
		t.Fatal(err)
	}
	sch := <-accepted
	before := srvW.writes.Load()

	const total = 8 << 20
	const step = 3 * defaultMaxPacket
	go func() { _, _ = ch.Write(make([]byte, total)) }()
	read := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, sch, total)
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("transfer stalled")
	}

	// The last adjust may still be in flight to the sender.
	deadline := time.Now().Add(5 * time.Second)
	var credited uint64
	for {
		ch.wmu.Lock()
		credited = ch.remoteWindow + total - defaultWindow
		ch.wmu.Unlock()
		if total-credited <= step || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if total-credited > step {
		t.Errorf("adjusts credited %d of %d bytes sent", credited, total)
	}
	// The receiver wrote nothing but adjusts during the push.
	if n := srvW.writes.Load() - before; n == 0 || n > (total+step-1)/step {
		t.Errorf("%d window adjusts for %d bytes, want 1..%d", n, total, (total+step-1)/step)
	}
}

// TestUnreadChannelStallsSender pushes 32 MiB into an accepted channel
// that nobody reads: the sender stalls once it has used the window,
// with at most the window buffered. Reading the channel then re-credits
// the window, and every byte arrives in order.
func TestUnreadChannelStallsSender(t *testing.T) {
	srv, cli, _, _ := countedPair(t, nil, nil)
	ms, mc := NewMux(srv), NewMux(cli)
	t.Cleanup(func() {
		mc.Close()
		ms.Close()
	})
	accepted := make(chan *Channel, 1)
	go func() {
		if nc, ok := <-ms.Incoming(); ok {
			ch, _ := nc.Accept()
			accepted <- ch
		}
	}()
	ch, err := mc.OpenChannel("session", nil)
	if err != nil {
		t.Fatal(err)
	}
	sch := <-accepted

	const total = 32 << 20
	data := make([]byte, total)
	for i := range data {
		data[i] = byte(i ^ i>>8 ^ i>>16)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := ch.Write(data)
		wrote <- err
	}()
	buffered := func() int {
		sch.dmu.Lock()
		defer sch.dmu.Unlock()
		return sch.buf.Len()
	}
	deadline := time.Now().Add(10 * time.Second)
	for buffered() < defaultWindow && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // room for any byte past the window
	select {
	case err := <-wrote:
		t.Fatalf("the sender finished (%v) with nobody reading", err)
	default:
	}
	if n := buffered(); n != defaultWindow {
		t.Fatalf("%d bytes buffered for an unread channel, want the %d-byte window", n, defaultWindow)
	}

	got := make([]byte, total)
	if _, err := io.ReadFull(sch, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the bytes read differ from the bytes written")
	}
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the sender never finished")
	}
}

// TestDataBeyondWindowDropped: a peer that sends past the window it was
// granted has the excess dropped, never buffered.
func TestDataBeyondWindowDropped(t *testing.T) {
	ch, cli, _ := exitPair(t)
	chunk := bytes.Repeat([]byte{'x'}, defaultMaxPacket-64)
	sent := 0
	for sent < defaultWindow+3*len(chunk) {
		b := NewBuilder(16 + len(chunk))
		b.Byte(MsgChannelData)
		b.Uint32(ch.localID)
		b.String(chunk)
		if err := cli.WritePacket(b.Bytes()); err != nil {
			t.Fatal(err)
		}
		sent += len(chunk)
	}
	// A request after the data: once it arrives, the data is delivered.
	b := NewBuilder(32)
	b.Byte(MsgChannelRequest)
	b.Uint32(ch.localID)
	b.StringS("env")
	b.Bool(false)
	if err := cli.WritePacket(b.Bytes()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch.Requests():
	case <-time.After(5 * time.Second):
		t.Fatal("the request after the data never arrived")
	}
	ch.dmu.Lock()
	n, left := ch.buf.Len(), ch.localWindow
	ch.dmu.Unlock()
	if n != defaultWindow || left != 0 {
		t.Fatalf("%d of %d bytes buffered, window left %d; want %d and 0", n, sent, left, defaultWindow)
	}
}
