package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/session"
	"honeynet/internal/store"
)

// hostileBatch is a batch payload (base 0, one record) whose record
// length is 2^64-1: converted to int it is negative, which the bounds
// check of the parent commit let through to a slice expression.
func hostileBatch() []byte {
	p := batchHeader(nil, 0, 1)
	return binary.AppendUvarint(p, math.MaxUint64)
}

// TestHostileBatchRejected: a peer that says a valid hello and then
// sends a batch with an absurd record length gets an error frame and a
// closed connection, not a dead collector — a well-behaved forwarder
// on a second connection still delivers.
func TestHostileBatchRejected(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerOptions{SyncAck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	srv.Register(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	c, _ := helloRaw(t, addr.String(), "hostile")
	defer c.Close()
	if err := writeFrame(c, frameBatch, hostileBatch(), nil); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var buf []byte
	typ, _, err := readFrame(c, maxFrame, &buf)
	if err != nil || typ != frameError {
		t.Fatalf("hostile batch answered with frame type %d, err %v; want an error frame", typ, err)
	}
	if _, _, err := readFrame(c, maxFrame, &buf); err != io.EOF {
		t.Errorf("after the error frame: %v, want the connection closed", err)
	}
	if n := reg.Snapshot()["honeynet_fleet_rejects_total"]; n != 1 {
		t.Errorf("honeynet_fleet_rejects_total = %v, want 1", n)
	}

	forwardDelivers(t, srv, addr.String(), "edge-1")
}

// liveHeap is the process's live heap after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// forwardDelivers runs a forwarder for a fresh 50-record store as node
// on addr and checks the collector's shard ends byte-equal to it.
func forwardDelivers(t *testing.T, srv *Server, addr, node string) {
	t.Helper()
	st := fillStore(t, 50)
	defer st.Close()
	fwd, err := NewForwarder(addr, node, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fwd.WaitCaughtUp(10 * time.Second) {
		t.Fatalf("forwarder never caught up beside the hostile peers: acked %d of %d", fwd.Acked(), st.NextSeq())
	}
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	assertShardEquals(t, srv, node, st)
}

// TestClaimedFrameLengthNotAllocated: 8 connections that each send
// only a 5-byte frame prefix — a 4 KiB hello as their first frame, or a
// 64 MiB batch after a valid hello — leave the collector holding under
// 512 KiB and 4 MiB more live heap. A claimed batch used to cost the
// 64 MiB it claimed, and a connection its batch-sized buffers before it
// said hello. A forwarder on another connection still delivers.
func TestClaimedFrameLengthNotAllocated(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hello bool
	}{{"first frame", false}, {"batch after hello", true}} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(t.TempDir(), ServerOptions{SyncAck: true})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			reg := obs.NewRegistry()
			srv.Register(reg)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			// The hostile node's shard is opened before the baseline, so
			// the heap it holds is not counted against the peers.
			c0, _ := helloRaw(t, addr.String(), "hostile")
			c0.Close()
			before := liveHeap()

			// Each peer claims the largest frame it may send next, a
			// hello or a batch, and sends none of it.
			prefix := binary.BigEndian.AppendUint32(nil, maxHello)
			prefix = append(prefix, frameHello)
			bound := uint64(512 << 10)
			if tc.hello {
				prefix = binary.BigEndian.AppendUint32(nil, maxFrame)
				prefix = append(prefix, frameBatch)
				bound = 4 << 20
			}
			conns := make([]net.Conn, 8)
			for i := range conns {
				if tc.hello {
					conns[i], _ = helloRaw(t, addr.String(), "hostile")
				} else {
					conns[i] = dialRaw(t, addr.String())
				}
				defer conns[i].Close()
				if _, err := conns[i].Write(prefix); err != nil {
					t.Fatal(err)
				}
			}
			// Nothing marks the moment a handler has read a prefix; an
			// allocation of the claimed length came within microseconds
			// of it.
			time.Sleep(300 * time.Millisecond)
			after := liveHeap()
			t.Logf("8 prefix-only connections: %d KiB more live heap", (int64(after)-int64(before))>>10)
			if after > before+bound {
				t.Errorf("8 prefix-only connections hold %d KiB more live heap, want under %d KiB",
					(after-before)>>10, bound>>10)
			}
			if !tc.hello {
				// A connection closed before its hello, and a first frame
				// past maxHello, each count as a reject.
				for _, c := range conns {
					c.Close()
				}
				over := append(binary.BigEndian.AppendUint32(nil, maxHello+1), frameHello)
				for i := 0; i < 8; i++ {
					c := dialRaw(t, addr.String())
					defer c.Close()
					if _, err := c.Write(over); err != nil {
						t.Fatal(err)
					}
				}
				for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
					if reg.Snapshot()["honeynet_fleet_rejects_total"] >= 16 {
						break
					}
				}
				if n := reg.Snapshot()["honeynet_fleet_rejects_total"]; n != 16 {
					t.Errorf("honeynet_fleet_rejects_total = %v after 8 closed and 8 over-size first frames, want 16", n)
				}
			}
			forwardDelivers(t, srv, addr.String(), "edge-1")
		})
	}
}

// TestSilentConnectionClosedAtHelloDeadline: a connection that never
// says hello is closed helloTimeout after it opened, while one that
// said hello may stay idle past that and still deliver a batch; a
// forwarder on another connection still delivers. The close counts as
// a reject. This test waits out the deadline, so it runs for about five
// seconds.
func TestSilentConnectionClosedAtHelloDeadline(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerOptions{SyncAck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	srv.Register(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	idle, next := helloRaw(t, addr.String(), "idle")
	defer idle.Close()
	silent := dialRaw(t, addr.String())
	defer silent.Close()
	start := time.Now()
	silent.SetReadDeadline(start.Add(helloTimeout + 10*time.Second))
	var buf []byte
	if _, _, err := readFrame(silent, maxFrame, &buf); err != io.EOF {
		t.Fatalf("silent connection: %v after %v, want it closed by the collector", err, time.Since(start))
	}
	if d := time.Since(start); d < helloTimeout-time.Second {
		t.Errorf("silent connection closed after %v, before the %v hello deadline", d, helloTimeout)
	}
	if n := reg.Snapshot()["honeynet_fleet_rejects_total"]; n != 1 {
		t.Errorf("honeynet_fleet_rejects_total = %v after the silent connection's close, want 1", n)
	}

	// The connection that said hello was idle just as long, and is
	// still served.
	body := appendBatchRecord(nil, lines(t, fillStore(t, 1))[0])
	if err := writeFrame(idle, frameBatch, batchHeader(nil, next, 1), body); err != nil {
		t.Fatal(err)
	}
	idle.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, err := readFrame(idle, maxFrame, &buf)
	if err != nil {
		t.Fatalf("idle connection after the hello deadline: %v", err)
	}
	if got, err := parseCursorFrame(typ, payload, frameAck); err != nil || got != next+1 {
		t.Fatalf("idle connection's ack: cursor %d, err %v; want %d", got, err, next+1)
	}
	forwardDelivers(t, srv, addr.String(), "edge-1")
}

// TestSlowBodyClosedAtDeadline: a peer that says hello, sends a batch
// frame's length prefix and then trickles its body a byte every 100 ms
// is closed helloTimeout after the frame began, and a forwarder on
// another connection still delivers. The trickle used to hold the
// handler and its buffers for as long as it went on. An edge whose
// batch arrived in two writes, and so was paced, then idles past the
// deadline and is still served. This test waits out the deadline, so
// it runs for about five seconds.
func TestSlowBodyClosedAtDeadline(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerOptions{SyncAck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	recs := lines(t, fillStore(t, 2))
	split, next := helloRaw(t, addr.String(), "split")
	defer split.Close()
	var frame bytes.Buffer
	if err := writeFrame(&frame, frameBatch, batchHeader(nil, next, 1), appendBatchRecord(nil, recs[0])); err != nil {
		t.Fatal(err)
	}
	pacedAt := time.Now()
	for _, part := range [][]byte{frame.Bytes()[:3], frame.Bytes()[3:]} {
		if _, err := split.Write(part); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := readAck(t, split); got != next+1 {
		t.Fatalf("split batch acked at cursor %d, want %d", got, next+1)
	}

	c, _ := helloRaw(t, addr.String(), "slow")
	defer c.Close()
	start := time.Now()
	if _, err := c.Write(append(binary.BigEndian.AppendUint32(nil, 1<<10), frameBatch)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := c.Write([]byte{0}); err != nil {
					return
				}
			}
		}
	}()
	c.SetReadDeadline(start.Add(helloTimeout + 10*time.Second))
	var buf []byte
	if _, _, err := readFrame(c, maxFrame, &buf); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("slow-body connection: %v after %v, want it closed by the collector", err, time.Since(start))
	}
	if d := time.Since(start); d < helloTimeout-time.Second || d > helloTimeout+3*time.Second {
		t.Errorf("slow-body connection closed after %v, want about the %v deadline", d, helloTimeout)
	}
	forwardDelivers(t, srv, addr.String(), "edge-1")

	// The edge whose batch was paced has idled past that batch's
	// deadline, and is still served.
	time.Sleep(helloTimeout + 100*time.Millisecond - time.Since(pacedAt))
	frame.Reset()
	if err := writeFrame(&frame, frameBatch, batchHeader(nil, next+1, 1), appendBatchRecord(nil, recs[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := split.Write(frame.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := readAck(t, split); got != next+2 {
		t.Fatalf("batch after an idle past the paced deadline acked at cursor %d, want %d", got, next+2)
	}
}

// FuzzBatchFrame drives arbitrary bytes through the collector's frame
// reader and batch parser, and through the forwarder's cursor-frame
// parser: nothing may panic, the frame buffer grows only with the bytes
// read, and every record line handed out must lie inside the frame's
// payload.
func FuzzBatchFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var b bytes.Buffer
		if err := writeFrame(&b, typ, payload, nil); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	good := appendBatchRecord(batchHeader(nil, 7, 2), []byte(`{"id":7}`))
	good = appendBatchRecord(good, []byte(`{"id":8}`))
	f.Add(frame(frameBatch, good))
	f.Add(frame(frameBatch, hostileBatch()))
	f.Add(frame(frameBatch, good)[:9])                                        // truncated frame
	f.Add([]byte{0, 0, 0, 0, frameBatch})                                     // zero-length frame
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))                     // oversized prefix
	f.Add(append(binary.BigEndian.AppendUint32(nil, maxFrame), frameBatch))   // a claim, no body
	f.Add(frame(frameBatch, binary.AppendUvarint([]byte{0}, math.MaxUint64))) // absurd count
	f.Add(frame(frameAck, []byte(`{"next":3}`)))
	f.Add(frame(frameError, []byte(`{"msg":"no"}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		typ, payload, err := readFrame(bytes.NewReader(data), maxFrame, &buf)
		// The buffer grows with the bytes read, whatever length the
		// prefix claims.
		if c := cap(buf); c > 2*len(data)+frameStep {
			t.Fatalf("a %d-byte input grew the frame buffer to %d bytes", len(data), c)
		}
		if err != nil {
			return
		}
		if len(payload) > len(data) {
			t.Fatalf("payload of %d bytes out of %d bytes of input", len(payload), len(data))
		}
		_, _ = parseCursorFrame(typ, payload, frameAck)
		_, count, rest, err := parseBatch(payload)
		if err != nil {
			return
		}
		if count < 0 || count > len(rest) {
			t.Fatalf("count %d over a %d-byte record section", count, len(rest))
		}
		for i := 0; i < count; i++ {
			before := rest
			var line []byte
			if line, rest, err = nextBatchRecord(rest); err != nil {
				return
			}
			// line and rest are consecutive subslices of before, after
			// at least the one length byte.
			off := len(before) - len(rest) - len(line)
			if off < 1 || len(rest) > len(before) {
				t.Fatalf("record %d: line %d + remainder %d bytes out of %d", i, len(line), len(rest), len(before))
			}
			if len(line) > 0 && &line[0] != &before[off] {
				t.Fatalf("record %d: line is not before[%d:]", i, off)
			}
			if len(rest) > 0 && &rest[0] != &before[off+len(line)] {
				t.Fatalf("record %d: remainder does not follow the line", i)
			}
		}
	})
}

// TestLargeRecordsBatchByBytes: 256 records of 300 KiB each fill one
// count-sized batch of 75 MiB, past maxFrame, which the forwarder used
// to retry for good. Batches close by bytes too, so these and the ten
// ordinary records after them are all acked and land byte-equal.
func TestLargeRecordsBatchByBytes(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerOptions{SyncAck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	big := strings.Repeat("curl -s http://x/ ", 300<<10/18)
	for i := 0; i < 266; i++ {
		r := mkRec(i)
		if i < 256 {
			r.Commands = []session.Command{{Raw: fmt.Sprintf("%d %s", i, big)}}
		}
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	fwd, err := NewForwarder(addr.String(), "edge-big", st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fwd.WaitCaughtUp(60 * time.Second) {
		t.Fatalf("forwarder stalled: acked %d of %d", fwd.Acked(), st.NextSeq())
	}
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	assertShardEquals(t, srv, "edge-big", st)
}
