package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"honeynet/internal/session"
)

func readJSONL(t *testing.T, path string) []*session.Record {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := session.ReadAll(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestTornTailRecovered: a crash mid-append leaves a newline-less JSON
// prefix; recoverTail truncates exactly that and every complete record
// survives, with appends continuing on a clean line boundary.
func TestTornTailRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	var buf bytes.Buffer
	for i := 1; i <= 5; i++ {
		buf.Write(marshal(t, mkRecord(0, i)))
		buf.WriteByte('\n')
	}
	const torn = `{"id":6,"start":"2023-11-1`
	buf.WriteString(torn)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	dropped, err := recoverTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != int64(len(torn)) {
		t.Fatalf("dropped %d bytes, want the %d-byte torn tail", dropped, len(torn))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(marshal(t, mkRecord(0, 7)), '\n')); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs := readJSONL(t, path)
	if len(recs) != 6 {
		t.Fatalf("read %d records, want 6 (5 old + 1 new)", len(recs))
	}
	if recs[4].ID != mkRecord(0, 5).ID || recs[5].ID != mkRecord(0, 7).ID {
		t.Errorf("tail records = %d, %d; want 5, 7", recs[4].ID, recs[5].ID)
	}
}

// TestTornTailInvalidJSONLineDropped: a complete-looking line that is
// not valid JSON (a partially flushed buffer that happened to end in
// "\n") is dropped too.
func TestTornTailInvalidJSONLineDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	if err := os.WriteFile(path, []byte(`{"id":1,"start":"2023-11-14T00:00:00Z","client_ip":"a","proto":"ssh"}`+"\n"+`{"id":2,"tr`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dropped, err := recoverTail(path)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 {
		t.Fatal("expected bytes dropped")
	}
	recs := readJSONL(t, path)
	if len(recs) != 1 || recs[0].ID != 1 {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestRecoverTailMissingAndEmpty(t *testing.T) {
	dir := t.TempDir()
	if n, err := recoverTail(filepath.Join(dir, "absent.jsonl")); err != nil || n != 0 {
		t.Fatalf("missing file: %d, %v", n, err)
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := recoverTail(empty); err != nil || n != 0 {
		t.Fatalf("empty file: %d, %v", n, err)
	}
}
