package fleet

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/store"
)

// batchFrame encodes records [base, base+count) of src as one batch
// frame; sequences past the end of src carry filler.
func batchFrame(t *testing.T, src [][]byte, base, count int) []byte {
	t.Helper()
	var body []byte
	for s := base; s < base+count; s++ {
		line := []byte(`{"id":0}`)
		if s < len(src) {
			line = src[s]
		}
		body = appendBatchRecord(body, line)
	}
	var frame bytes.Buffer
	if err := writeFrame(&frame, frameBatch, batchHeader(nil, uint64(base), count), body); err != nil {
		t.Fatal(err)
	}
	return frame.Bytes()
}

// readAck reads one ack frame off a raw connection.
func readAck(t *testing.T, c net.Conn) uint64 {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var buf []byte
	typ, payload, err := readFrame(c, maxFrame, &buf)
	if err != nil {
		t.Fatalf("read ack: %v", err)
	}
	next, err := parseCursorFrame(typ, payload, frameAck)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// shardOf returns the collector's store for node.
func shardOf(t *testing.T, srv *Server, node string) *store.Store {
	t.Helper()
	for _, sh := range srv.Fleet().Shards() {
		if sh.Node == node {
			return sh.Store
		}
	}
	t.Fatalf("collector has no shard for node %s", node)
	return nil
}

// assertShardLines checks node's shard holds exactly want, in order.
func assertShardLines(t *testing.T, srv *Server, node string, want [][]byte) {
	t.Helper()
	st := shardOf(t, srv, node)
	got := lines(t, st)
	if len(got) != len(want) || st.NextSeq() != uint64(len(want)) {
		t.Fatalf("shard %s holds %d records, next seq %d, want %d", node, len(got), st.NextSeq(), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("shard %s record %d differs:\n got %s\nwant %s", node, i, got[i], want[i])
		}
	}
}

// TestTwoConnectionsOneNode is ROADMAP 1a reduced to a fixed delivery
// schedule: a forwarder's link drops, it reconnects and resumes from
// the collector's cursor, and the old connection's handler is still
// working through batches it had buffered. Both connections carry the
// same sequences; the shard must take each once.
func TestTwoConnectionsOneNode(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerOptions{SyncAck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv.Register(reg)

	const total, m = 160, 32
	st := fillStore(t, total)
	src := lines(t, st)
	st.Close()

	const node = "twin"
	stale, resume := helloRaw(t, addr.String(), node)
	defer stale.Close()
	if resume != 0 {
		t.Fatalf("fresh node resumes at %d", resume)
	}
	send := func(c net.Conn, base int) uint64 {
		t.Helper()
		if _, err := c.Write(batchFrame(t, src, base, m)); err != nil {
			t.Fatal(err)
		}
		return readAck(t, c)
	}
	if got := send(stale, 0); got != m {
		t.Fatalf("ack %d, want %d", got, m)
	}
	fresh, resume := helloRaw(t, addr.String(), node)
	defer fresh.Close()
	if resume != m {
		t.Fatalf("reconnect resumes at %d, want %d", resume, m)
	}
	// conn, base, cursor the ack must state. The stale connection keeps
	// sending what it had in flight; each side runs ahead in turn.
	for i, step := range []struct {
		c          net.Conn
		base, want int
	}{
		{fresh, 1 * m, 2 * m},
		{stale, 1 * m, 2 * m}, // overlap: all duplicates
		{stale, 2 * m, 3 * m},
		{fresh, 2 * m, 3 * m}, // overlap
		{fresh, 3 * m, 4 * m},
		{stale, 3 * m, 4 * m}, // overlap
		{stale, 4 * m, 5 * m},
	} {
		if got := send(step.c, step.base); got != uint64(step.want) {
			t.Fatalf("step %d: ack %d, want %d", i, got, step.want)
		}
	}
	assertShardLines(t, srv, node, src)
	snap := reg.Snapshot()
	if got := snap["honeynet_fleet_duplicate_total"]; got != 3*m {
		t.Errorf("duplicate_total %v, want the overlap %d", got, 3*m)
	}
	if got := snap["honeynet_fleet_received_total"]; got != total {
		t.Errorf("received_total %v, want %d", got, total)
	}
}

// pipePeer runs srv.handle over one end of a net.Pipe and says hello
// as node on the other. A net.Pipe write is handed to the reader whole
// and the handler's read buffer is larger than anything written here,
// so "these frames arrive together" is a schedule, not a hope. The
// returned wait closes the peer and waits for the handler to return.
func pipePeer(t *testing.T, srv *Server, node string) (peer net.Conn, wait func()) {
	t.Helper()
	peer, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handle(server)
	}()
	helloOn(t, peer, node)
	return peer, func() {
		peer.Close()
		<-done
	}
}

// TestAckGroupCommit scripts the collector's side of the ack protocol:
// frames that arrive together share one flush and one ack, a frame that
// has not fully arrived holds nothing up, and a batch that makes no
// progress is never folded into a progressing ack.
func TestAckGroupCommit(t *testing.T) {
	srv, err := NewServer(t.TempDir(), ServerOptions{SyncAck: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	srv.Register(reg)

	const m = 8
	st := fillStore(t, (maxAckGroup+2)*m)
	src := lines(t, st)
	st.Close()
	frames := func(bases ...int) []byte {
		var out []byte
		for _, b := range bases {
			out = append(out, batchFrame(t, src, b, m)...)
		}
		return out
	}
	seq := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i * m
		}
		return out
	}
	half := len(batchFrame(t, src, m, m)) / 2

	type step struct {
		write []byte
		acks  []uint64 // what the peer reads before it writes again
	}
	for i, tc := range []struct {
		name    string
		steps   []step
		batches float64
		flushes int // shard fsyncs the acks cost
		gaps    float64
	}{
		{
			name:    "whole frames share one ack",
			steps:   []step{{frames(0, m, 2*m, 3*m), []uint64{4 * m}}},
			batches: 4, flushes: 1,
		},
		{
			name: "half a frame holds nothing up",
			steps: []step{
				{frames(0, m)[:len(frames(0))+half], []uint64{m}},
				{frames(m)[half:], []uint64{2 * m}},
			},
			batches: 2, flushes: 2,
		},
		{
			name:    "gap behind progress",
			steps:   []step{{frames(0, m, 100*m), []uint64{2 * m, 2 * m}}},
			batches: 3, flushes: 1, gaps: 1,
		},
		{
			name:    "duplicate behind progress",
			steps:   []step{{frames(0, 0), []uint64{m, m}}},
			batches: 2, flushes: 1,
		},
		{
			name:    "overlap behind progress",
			steps:   []step{{append(frames(0), batchFrame(t, src, m/2, m)...), []uint64{m, m + m/2}}},
			batches: 2, flushes: 1,
		},
		{
			name:    "group is bounded",
			steps:   []step{{frames(seq(maxAckGroup + 2)...), []uint64{maxAckGroup * m, (maxAckGroup + 2) * m}}},
			batches: maxAckGroup + 2, flushes: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node := fmt.Sprintf("gc-%d", i)
			peer, wait := pipePeer(t, srv, node)
			defer wait()
			before := reg.Snapshot()

			var last uint64
			acks := 0.0
			for i, s := range tc.steps {
				if _, err := peer.Write(s.write); err != nil {
					t.Fatal(err)
				}
				for j, want := range s.acks {
					if got := readAck(t, peer); got != want {
						t.Fatalf("step %d ack %d: next %d, want %d", i, j, got, want)
					}
					last = want
					acks++
				}
			}
			wait() // the handler counts an ack once the peer has read it
			after := reg.Snapshot()
			for name, want := range map[string]float64{
				"honeynet_fleet_batches_received_total": tc.batches,
				"honeynet_fleet_acks_sent_total":        acks,
				"honeynet_fleet_gap_total":              tc.gaps,
			} {
				if got := after[name] - before[name]; got != want {
					t.Errorf("%s moved %v, want %v", name, got, want)
				}
			}
			srv.mu.Lock()
			n := srv.shards[node]
			srv.mu.Unlock()
			n.mu.Lock()
			flushes := n.flushes
			n.mu.Unlock()
			if flushes != tc.flushes {
				t.Errorf("shard flushed %d times, want %d", flushes, tc.flushes)
			}
			assertShardLines(t, srv, node, src[:last])
		})
	}
}
