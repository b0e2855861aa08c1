package sessionlog

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/session"
)

func rec(id uint64) *session.Record {
	return &session.Record{
		ID:       id,
		Start:    time.Unix(1_700_000_000, 0).UTC(),
		ClientIP: fmt.Sprintf("10.0.0.%d", id%250),
		Protocol: session.ProtoSSH,
		Commands: []session.Command{{Raw: "uname -a", Known: true}},
	}
}

func readAll(t *testing.T, path string) []*session.Record {
	t.Helper()
	// Sealed rotation segments path.1, path.2, ... oldest first, then
	// the live segment: the read order that reconstructs the stream.
	var segs []string
	for i := 1; ; i++ {
		seg := fmt.Sprintf("%s.%d", path, i)
		if _, err := os.Stat(seg); err != nil {
			break
		}
		segs = append(segs, seg)
	}
	var out []*session.Record
	for _, seg := range append(segs, path) {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := session.ReadAll(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", seg, err)
		}
		out = append(out, recs...)
	}
	return out
}

func TestWriteFlushRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jsonl")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := w.Write(rec(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs := readAll(t, path)
	if len(recs) != 10 {
		t.Fatalf("read %d records, want 10", len(recs))
	}
	if w.Written() != 10 || w.Errors() != 0 {
		t.Errorf("Written=%d Errors=%d", w.Written(), w.Errors())
	}
}

func TestTornTailRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jsonl")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := w.Write(rec(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, newline-less JSON prefix.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":6,"start":"2023-11-1`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen: the torn tail must be truncated and every complete record
	// must survive.
	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Write(rec(7)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	recs := readAll(t, path)
	if len(recs) != 6 {
		t.Fatalf("read %d records, want 6 (5 old + 1 new)", len(recs))
	}
	if recs[4].ID != 5 || recs[5].ID != 7 {
		t.Errorf("tail records = %d, %d; want 5, 7", recs[4].ID, recs[5].ID)
	}
}

func TestTornTailInvalidJSONLineDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jsonl")
	// A complete-looking line that is not valid JSON (e.g. a partially
	// flushed buffer that happened to end in "\n") must also be dropped.
	if err := os.WriteFile(path, []byte(`{"id":1,"start":"2023-11-14T00:00:00Z","client_ip":"a","proto":"ssh"}`+"\n"+`{"id":2,"tr`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dropped, err := RecoverTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("expected bytes dropped")
	}
	recs := readAll(t, path)
	if len(recs) != 1 || recs[0].ID != 1 {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestRecoverTailMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	if n, err := RecoverTail(filepath.Join(dir, "absent.jsonl")); err != nil || n != 0 {
		t.Fatalf("missing file: %d, %v", n, err)
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := RecoverTail(empty); err != nil || n != 0 {
		t.Fatalf("empty file: %d, %v", n, err)
	}
}

func TestRotationUnderConcurrentWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jsonl")
	// Tiny segments force many rotations while 8 writers hammer the log.
	w, err := Open(path, Options{MaxSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Write(rec(uint64(g*per + i + 1))); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Rotations() == 0 {
		t.Fatal("expected at least one rotation")
	}
	recs := readAll(t, path)
	if len(recs) != writers*per {
		t.Fatalf("read %d records across segments, want %d", len(recs), writers*per)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate record %d", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestRotationIndexSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	for round := 0; round < 3; round++ {
		w, err := Open(path, Options{MaxSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if err := w.Write(rec(uint64(round*10 + i + 1))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	recs := readAll(t, path)
	if len(recs) != 30 {
		t.Fatalf("read %d records, want 30 — a restart overwrote a sealed segment", len(recs))
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct {
	n int
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestStreamWriteErrorsCounted(t *testing.T) {
	w := NewStream(&failWriter{n: 0})
	for i := 0; i < 3; i++ {
		_ = w.Write(rec(uint64(i + 1)))
	}
	// Buffered: errors surface at flush time at the latest.
	_ = w.Flush()
	if w.Errors() == 0 {
		t.Fatal("write errors must be counted, not swallowed")
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec(1)); err == nil {
		t.Fatal("write after close must fail")
	}
	if w.Errors() != 1 {
		t.Errorf("Errors = %d, want 1", w.Errors())
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestPeriodicSyncFlushesIdleData(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.jsonl")
	w, err := Open(path, Options{SyncEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Write(rec(1)); err != nil {
		t.Fatal(err)
	}
	// Without any Flush call the background sync must land the record.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := os.Stat(path)
		if err == nil && st.Size() > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("record never reached disk via periodic sync")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSnapshotTrailerRoundTrip: a drain-time metrics snapshot lands in
// the log, session.ReadAll skips it, and ReadSnapshots recovers it.
func TestSnapshotTrailerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jsonl")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec(1)); err != nil {
		t.Fatal(err)
	}
	snap := Snapshot{
		Time:   time.Unix(1_700_000_123, 0).UTC(),
		Reason: "drain",
		Metrics: map[string]float64{
			`honeynet_node_connections_total{proto="ssh"}`: 7,
			"honeynet_sessionlog_written_total":            1,
		},
	}
	if err := w.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Written(); got != 2 {
		t.Errorf("Written = %d, want 2 (trailers are not records)", got)
	}

	// Records load as before, trailer invisible.
	recs := readAll(t, path)
	if len(recs) != 2 || recs[0].ID != 1 || recs[1].ID != 2 {
		t.Fatalf("records = %d, want the 2 session records", len(recs))
	}

	// The snapshot is recoverable for post-mortems.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snaps, err := ReadSnapshots(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	got := snaps[0]
	if !got.Time.Equal(snap.Time) || got.Reason != "drain" {
		t.Errorf("snapshot header = %+v", got)
	}
	if got.Metrics[`honeynet_node_connections_total{proto="ssh"}`] != 7 {
		t.Errorf("snapshot metrics = %v", got.Metrics)
	}
}

// TestTrailerSurvivesTornTailRecovery: a torn write after a trailer
// truncates back to the trailer line, keeping it valid.
func TestTrailerSurvivesTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jsonl")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSnapshot(Snapshot{Reason: "drain"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append after the trailer.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":99,"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Recovered() == 0 {
		t.Error("expected Recovered > 0 after torn tail")
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	snaps, err := ReadSnapshots(rf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Reason != "drain" {
		t.Fatalf("snapshots after recovery = %+v", snaps)
	}
}

// TestParseSize covers the human size grammar.
func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1048576", 1 << 20, false},
		{"256MB", 256 << 20, false},
		{"64m", 64 << 20, false},
		{"1GiB", 1 << 30, false},
		{"2k", 2 << 10, false},
		{"10B", 10, false},
		{"-1", 0, true},
		{"huge", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}

// TestWriterRegister: the writer's counters are scrapeable.
func TestWriterRegister(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jsonl")
	w, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reg := obs.NewRegistry()
	w.Register(reg)
	if err := w.Write(rec(1)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap["honeynet_sessionlog_written_total"] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
}
