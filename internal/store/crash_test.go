package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestCrashRecoveryProperty is the crash-safety property test: write
// through the store, seal part of the history, then simulate a crash by
// truncating the WAL at a random offset (a torn mid-block write).
// Recovery must lose at most the unsealed, unsynced tail — never a
// sealed segment, never a record that precedes the cut, and never
// produce a duplicate or out-of-order record.
func TestCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		dir := t.TempDir()
		s, err := Open(dir, Options{SealBytes: -1, SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		sealed := 50 + rng.Intn(150)
		fill(t, s, sealed, 3)
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		tail := rng.Intn(120)
		for i := 0; i < tail; i++ {
			if err := s.Append(mkRecord(i%3, sealed+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		// Crash: abandon the store without Close (no final seal).
		s.walF.Close()

		// Tear the WAL at a random offset, as a crash mid-write would.
		walPath := filepath.Join(dir, walName)
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		cut := int64(rng.Intn(int(fi.Size()) + 1))
		if err := os.Truncate(walPath, cut); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("trial %d: recovery failed: %v", trial, err)
		}
		got := drainStream(t, s2.Stream())
		// Sealed records are inviolate; tail loss is bounded by the cut.
		if len(got) < sealed {
			t.Fatalf("trial %d: recovery lost sealed records: %d < %d (cut %d/%d)",
				trial, len(got), sealed, cut, fi.Size())
		}
		if len(got) > sealed+tail {
			t.Fatalf("trial %d: recovery invented records: %d > %d", trial, len(got), sealed+tail)
		}
		// Whatever survived must be an exact prefix of the append history.
		for i, r := range got {
			var want uint64
			if i < sealed {
				want = mkRecord(i%3, i).ID
			} else {
				want = mkRecord((i-sealed)%3, i).ID
			}
			if r.ID != want {
				t.Fatalf("trial %d: record %d has ID %d, want %d (not an append-order prefix)",
					trial, i, r.ID, want)
			}
		}
		// The recovered store must be writable and sealable.
		if err := s2.Append(mkRecord(0, 999_999)); err != nil {
			t.Fatalf("trial %d: append after recovery: %v", trial, err)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("trial %d: close after recovery: %v", trial, err)
		}
	}
}

// TestStaleWALDiscarded covers a state only an older binary can leave:
// one that reset the active WAL in place after the manifest commit, and
// crashed between the two, leaves a WAL whose records are all in sealed
// segments. Reopening must still discard it rather than replay
// duplicates.
func TestStaleWALDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SealBytes: -1, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, s, 80, 2)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName)
	preSeal, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.walF.Close() // crash without Close

	// Reinstate the pre-seal WAL: exactly the on-disk state of that
	// binary's crash between manifest commit and WAL reset.
	if err := os.WriteFile(walPath, preSeal, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.staleWALDrops.Load() != 1 {
		t.Fatalf("stale WAL drops = %d, want 1", s2.staleWALDrops.Load())
	}
	if got := s2.Len(); got != 80 {
		t.Fatalf("store holds %d records after stale-WAL recovery, want 80 (no duplicates)", got)
	}
}

// TestHeaderlessWALDiscarded: a WAL without the binding header (e.g.
// written by a foreign tool or truncated into the first line) must not
// be replayed as records.
func TestHeaderlessWALDiscarded(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName),
		[]byte(`{"id":1,"start":"2021-05-01T00:00:00Z","end":"2021-05-01T00:01:00Z","hp":"x","client_ip":"1.2.3.4","proto":"ssh"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("headerless WAL replayed %d records, want 0", s.Len())
	}
	if s.staleWALDrops.Load() != 1 {
		t.Fatalf("stale drops = %d, want 1", s.staleWALDrops.Load())
	}
}
