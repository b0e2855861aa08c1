package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"honeynet/internal/session"
)

// TestScanSeqOrder checks the replication cursor streams every record
// in dense global sequence order across sealed segments (which split
// one WAL by month, interleaving sequence ranges) and the unsealed
// tail, from any starting cursor.
func TestScanSeqOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	recs := fill(t, s, 300, 3)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	recs = append(recs, fill(t, s, 50, 2)...) // unsealed tail on top
	if got := s.NextSeq(); got != 350 {
		t.Fatalf("NextSeq = %d, want 350", got)
	}

	for _, from := range []uint64{0, 1, 137, 299, 300, 317, 350, 400} {
		cur := s.ScanSeq(from)
		want := from
		for cur.Next() {
			if cur.Seq() != want {
				t.Fatalf("from %d: seq %d, want %d", from, cur.Seq(), want)
			}
			exp := marshal(t, recs[want])
			if !bytes.Equal(cur.Line(), exp) {
				t.Fatalf("from %d: seq %d line mismatch:\n got %s\nwant %s", from, want, cur.Line(), exp)
			}
			want++
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("from %d: %v", from, err)
		}
		cur.Close()
		expEnd := uint64(350)
		if from > expEnd {
			expEnd = from
		}
		if want != expEnd {
			t.Fatalf("from %d: stopped at %d, want %d", from, want, expEnd)
		}
	}
}

// TestScanSeqReadOnly re-opens a store read-only (no canonical tail
// lines cached) and checks ScanSeq still produces canonical bytes.
func TestScanSeqReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := fill(t, s, 40, 2)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close (crash_test pattern) so a WAL tail remains,
	// then reopen read-only: no canonical tail lines are cached.
	s.walF.Close()
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	cur := ro.ScanSeq(0)
	n := 0
	for cur.Next() {
		if !bytes.Equal(cur.Line(), marshal(t, recs[n])) {
			t.Fatalf("seq %d: line mismatch", n)
		}
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if n != 40 {
		t.Fatalf("streamed %d records, want 40", n)
	}
}

// TestWatchSignalsAppend checks the tailer wake-up contract: drain,
// re-check NextSeq, never miss progress.
func TestWatchSignalsAppend(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.Watch()
	select {
	case <-w:
		t.Fatal("watch fired before any append")
	default:
	}
	if err := s.Append(mkRecord(0, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w:
	case <-time.After(2 * time.Second):
		t.Fatal("watch did not fire after append")
	}
	if got := s.NextSeq(); got != 1 {
		t.Fatalf("NextSeq = %d, want 1", got)
	}
}

func TestValidNodeID(t *testing.T) {
	for _, id := range []string{"edge-1", "a", "A.b_c-9", "n0"} {
		if !ValidNodeID(id) {
			t.Errorf("ValidNodeID(%q) = false, want true", id)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, id := range []string{"", ".hidden", "-flag", "a/b", "a b", "é", string(long)} {
		if ValidNodeID(id) {
			t.Errorf("ValidNodeID(%q) = true, want false", id)
		}
	}
}

func TestIsFleetDir(t *testing.T) {
	single := t.TempDir()
	s, err := Open(single, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 10, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if IsFleetDir(single) {
		t.Error("single store misdetected as fleet dir")
	}

	fdir := t.TempDir()
	if err := WriteFleetMarker(fdir); err != nil {
		t.Fatal(err)
	}
	if !IsFleetDir(fdir) {
		t.Error("marker dir not detected as fleet dir")
	}

	// Marker lost (collector killed before writing it): shards alone
	// still identify the directory.
	fdir2 := t.TempDir()
	sh, err := Open(ShardDir(fdir2, "n1"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, sh, 5, 1)
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if !IsFleetDir(fdir2) {
		t.Error("markerless shard dir not detected as fleet dir")
	}
	if IsFleetDir(t.TempDir()) {
		t.Error("empty dir misdetected as fleet dir")
	}
}

// TestFleetNodes: the one shard enumerator lists node-<id>
// subdirectories with a valid id, sorted, and nothing else.
func TestFleetNodes(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"node-b", "node-a.1", "node-", "node-.hidden", "node-bad id", "other"} {
		if err := os.Mkdir(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "node-file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := FleetNodes(dir)
	if want := []string{"a.1", "b"}; err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("FleetNodes = %v, %v; want %v", got, err, want)
	}
	if _, err := FleetNodes(filepath.Join(dir, "missing")); err == nil {
		t.Error("FleetNodes of a missing directory did not fail")
	}
}

// TestFleetScatterGather builds three shards with interleaved session
// times and checks the merged scan order, Stream's canonical total
// order, and aggregates against a single store holding the same records.
func TestFleetScatterGather(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFleetMarker(dir); err != nil {
		t.Fatal(err)
	}
	nodes := []string{"edge-a", "edge-b", "edge-c"}
	perNode := 120
	for ni, node := range nodes {
		sh, err := Open(ShardDir(dir, node), Options{BlockBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perNode; i++ {
			// Offset per node so times interleave across shards; every
			// third record shares an exact Start across nodes to
			// exercise the node-id tiebreak.
			r := mkRecord(i%3, i*len(nodes)+ni)
			r.HoneypotID = node // lets the scan check below see the merge's node tiebreak
			if i%3 == 0 {
				r.Start = mkRecord(0, i).Start
				r.End = r.Start.Add(45 * time.Second)
			}
			if err := sh.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if ni == 0 { // one shard sealed, two with live tails
			if err := sh.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
	}

	fl, err := OpenFleet(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if fl.Len() != len(nodes)*perNode {
		t.Fatalf("fleet Len = %d, want %d", fl.Len(), len(nodes)*perNode)
	}

	// Stream: total order by (Start, node, per-shard index).
	recs := drainStream(t, fl.Stream())
	if len(recs) != len(nodes)*perNode {
		t.Fatalf("Stream returned %d records, want %d", len(recs), len(nodes)*perNode)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start.Before(recs[i-1].Start) {
			t.Fatalf("Stream order violated at %d: %v after %v", i, recs[i].Start, recs[i-1].Start)
		}
	}

	// Row query: merged stream ordered by (month, Start, node) at each step.
	res, err := fl.RunQuery(&Query{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var prev *session.Record
	for res.Next() {
		r := res.Record()
		if prev != nil {
			pm, cm := prev.Month(), r.Month()
			if cm.Before(pm) {
				t.Fatalf("scan month went backwards at %d", n)
			}
			if cm.Equal(pm) && r.Start.Before(prev.Start) {
				t.Fatalf("scan time went backwards at %d within month", n)
			}
			if cm.Equal(pm) && r.Start.Equal(prev.Start) && r.HoneypotID < prev.HoneypotID {
				t.Fatalf("scan node tiebreak violated at %d: %s after %s", n, r.HoneypotID, prev.HoneypotID)
			}
		}
		prev = r
		n++
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	res.Close()
	if n != len(nodes)*perNode {
		t.Fatalf("scan yielded %d records, want %d", n, len(nodes)*perNode)
	}

	// Aggregates agree with a single store over the same records: the
	// monthly kind and protocol counts metadata answers, and one that has
	// to read blocks.
	ss, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for _, r := range recs {
		if err := ss.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for qi, q := range []*Query{
		{GroupBy: []Field{FieldMonth, FieldKind}, Aggs: []AggSpec{{Op: AggCount}}},
		{GroupBy: []Field{FieldMonth, FieldProto}, Aggs: []AggSpec{{Op: AggCount}}},
		{GroupBy: []Field{FieldKind}, Aggs: []AggSpec{{Op: AggCount}, {Op: AggCountDistinct, Field: FieldIP}}},
	} {
		if f, s := runIDsOrGroups(t, fl, q), runIDsOrGroups(t, ss, q); !reflect.DeepEqual(f, s) {
			t.Fatalf("aggregate %d: fleet %v != single store %v", qi, f, s)
		}
	}
}

// TestOpenFleetCorruptShard: with two of four shards' manifests
// corrupt, OpenFleet fails naming the first of them in node order,
// read-only and read-write alike. A read-write open starts each shard's
// flush goroutine, so the goroutine count coming back down shows the
// shards that did open were closed again.
func TestOpenFleetCorruptShard(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFleetMarker(dir); err != nil {
		t.Fatal(err)
	}
	nodes := []string{"edge-a", "edge-b", "edge-c", "edge-d"}
	for _, node := range nodes {
		sealedFixture(t, ShardDir(dir, node))
	}
	for _, node := range []string{"edge-c", "edge-b"} {
		if err := os.WriteFile(filepath.Join(ShardDir(dir, node), manifestName), []byte(`{"version":1,`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, ro := range []bool{true, false} {
		before := runtime.NumGoroutine()
		fl, err := OpenFleet(dir, Options{ReadOnly: ro})
		if err == nil {
			fl.Close()
			t.Fatalf("OpenFleet(ReadOnly=%v) opened a fleet with corrupt shards", ro)
		}
		if !strings.Contains(err.Error(), "fleet shard edge-b:") || !strings.Contains(err.Error(), "corrupt manifest") {
			t.Errorf("OpenFleet(ReadOnly=%v): error %q does not name shard edge-b's manifest", ro, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("OpenFleet(ReadOnly=%v) left %d goroutines behind", ro, n-before)
		}
	}
}
