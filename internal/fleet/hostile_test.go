package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
	typ, _, err := readFrame(c, &buf)
	if err != nil || typ != frameError {
		t.Fatalf("hostile batch answered with frame type %d, err %v; want an error frame", typ, err)
	}
	if _, _, err := readFrame(c, &buf); err != io.EOF {
		t.Errorf("after the error frame: %v, want the connection closed", err)
	}
	if n := reg.Snapshot()["honeynet_fleet_rejects_total"]; n != 1 {
		t.Errorf("honeynet_fleet_rejects_total = %v, want 1", n)
	}

	st := fillStore(t, 50)
	defer st.Close()
	fwd, err := NewForwarder(addr.String(), "edge-1", st, Options{MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if !fwd.WaitCaughtUp(10 * time.Second) {
		t.Fatalf("forwarder never caught up after the hostile peer: acked %d of %d", fwd.Acked(), st.NextSeq())
	}
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	assertShardEquals(t, srv, "edge-1", st)
}

// FuzzBatchFrame drives arbitrary bytes through the collector's frame
// reader and batch parser, and through the forwarder's cursor-frame
// parser: nothing may panic, and every record line handed out must lie
// inside the frame's payload.
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
	f.Add(frame(frameBatch, binary.AppendUvarint([]byte{0}, math.MaxUint64))) // absurd count
	f.Add(frame(frameAck, []byte(`{"next":3}`)))
	f.Add(frame(frameError, []byte(`{"msg":"no"}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf []byte
		typ, payload, err := readFrame(bytes.NewReader(data), &buf)
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
	fwd, err := NewForwarder(addr.String(), "edge-big", st, Options{MaxDelay: time.Millisecond})
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
