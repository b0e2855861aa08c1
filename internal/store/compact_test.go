package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"honeynet/internal/session"
)

// storeFiles reads the manifest and every segment file under dir.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		if name := e.Name(); e.Type().IsRegular() && (name == manifestName || strings.HasSuffix(name, ".hns")) {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = string(data)
		}
	}
	return out
}

// checkNoOrphans fails t if s's directory holds a segment file its
// manifest does not reference.
func checkNoOrphans(t *testing.T, label string, s *Store) {
	t.Helper()
	man, _ := s.snapshot()
	live := map[string]bool{}
	for _, seg := range man.Segments {
		live[seg.File] = true
	}
	for name := range storeFiles(t, s.dir) {
		if name != manifestName && !live[name] {
			t.Fatalf("%s: %s is on disk but not in the manifest", label, name)
		}
	}
}

// TestDailyRestartKeepsSegments: a node restarted every day of a month
// — open, append, close, thirty times — seals one v3 segment per
// restart, and no read-write Open rewrites one or the manifest; the
// thirty-segment month reads back exactly like a store that sealed the
// same records once.
func TestDailyRestartKeepsSegments(t *testing.T) {
	dir := t.TempDir()
	var want []*session.Record
	for day := 0; day < 30; day++ {
		before := storeFiles(t, dir)
		s, err := Open(dir, Options{BlockBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(storeFiles(t, dir), before) {
			t.Fatalf("day %d: a read-write open of a v3 store changed its files", day)
		}
		for i := 0; i < 20; i++ {
			r := mkRecord(0, len(want))
			if err := s.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	s, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if man, _ := s.snapshot(); len(man.Segments) != 30 {
		t.Fatalf("%d segments after 30 restarts, want 30", len(man.Segments))
	}
	checkHistory(t, "daily restart", s, want)

	refDir := t.TempDir()
	sealInto(t, refDir, want)
	ref, err := Open(refDir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if !reflect.DeepEqual(drainStream(t, ref.Stream()), drainStream(t, s.Stream())) {
		t.Fatal("restarted store's Stream differs from a uniform store's")
	}
	for qi, q := range mixedQueries(want[10].ClientIP) {
		if !reflect.DeepEqual(runIDsOrGroups(t, ref, q), runIDsOrGroups(t, s, q)) {
			t.Fatalf("query %d: restarted store result differs from uniform", qi)
		}
	}
}

// TestOpenDropsOrphanSegments: a read-write Open removes every
// seg-*.hns file the manifest does not reference, and nothing else; a
// read-only open removes nothing.
func TestOpenDropsOrphanSegments(t *testing.T) {
	dir := t.TempDir()
	sealInto(t, dir, mixedRecs(90))
	before := storeFiles(t, dir)
	for _, name := range []string{segFileName(99), "notes.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ro.Close()
	if !exists(filepath.Join(dir, segFileName(99))) {
		t.Fatal("a read-only open removed a file")
	}
	rw, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if got := storeFiles(t, dir); !reflect.DeepEqual(got, before) {
		t.Fatalf("after a read-write open the store holds %d files, want the %d it had", len(got), len(before))
	}
	if !exists(filepath.Join(dir, "notes.txt")) {
		t.Fatal("a read-write open removed a file that is not a segment")
	}
}

// TestFailedMigrationLeavesStore: a migration that fails — on a
// corrupt legacy block, or because its segment file cannot be written,
// as on a full disk — fails the read-write open and changes no byte of
// the manifest or of any segment; the store stays legacy, so a
// read-only open is still refused. Once the obstacle is gone the next
// read-write open migrates.
func TestFailedMigrationLeavesStore(t *testing.T) {
	t.Run("corrupt", func(t *testing.T) {
		dir := t.TempDir()
		copyLegacy(t, dir)
		man, err := loadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		seg := man.Segments[1]
		path := filepath.Join(dir, seg.File)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b := seg.Blocks[3]
		data[b.Off+int64(b.CLen/2)] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := storeFiles(t, dir)

		_, err = Open(dir, Options{})
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.File != seg.File || ce.Block != 3 {
			t.Fatalf("open over a corrupt legacy month: %v; want a CorruptError for %s block 3", err, seg.File)
		}
		if !reflect.DeepEqual(storeFiles(t, dir), before) {
			t.Fatal("manifest or segment bytes changed")
		}
		if _, err := Open(dir, Options{ReadOnly: true}); !errors.Is(err, ErrLegacySegment) {
			t.Fatalf("read-only open after the failed migration: %v, want ErrLegacySegment", err)
		}
	})

	t.Run("unwritable", func(t *testing.T) {
		dir := t.TempDir()
		want := copyLegacy(t, dir)
		man, err := loadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		// A non-empty directory at the new segment's name: writeSegment
		// fails, and the failed run's cleanup cannot remove it.
		block := filepath.Join(dir, segFileName(man.NextSeg))
		if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
			t.Fatal(err)
		}
		before := storeFiles(t, dir)

		_, err = Open(dir, Options{})
		var ce *CorruptError
		if err == nil || errors.As(err, &ce) {
			t.Fatalf("open with the segment file unwritable: %v; want a write error", err)
		}
		if !reflect.DeepEqual(storeFiles(t, dir), before) {
			t.Fatal("manifest or segment bytes changed")
		}
		if _, err := Open(dir, Options{ReadOnly: true}); !errors.Is(err, ErrLegacySegment) {
			t.Fatalf("read-only open after the failed migration: %v, want ErrLegacySegment", err)
		}

		if err := os.RemoveAll(block); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if man, _ := s.snapshot(); len(man.Segments) != 1 || man.Segments[0].legacy() {
			t.Fatalf("after the retry: %d segments, want one HNSTORE3", len(man.Segments))
		}
		if !reflect.DeepEqual(drainStream(t, s.Stream()), want) {
			t.Fatal("migrated store's Stream differs from the fixture's records")
		}
	})
}

// TestMigrationSplitsAtSealSize: a run of legacy segments whose raw
// bytes pass the seal size is split, each part its own v3 segment, so
// compaction never holds more of a month than a seal would; the store
// still reads back as the fixture.
func TestMigrationSplitsAtSealSize(t *testing.T) {
	dir := t.TempDir()
	want := copyLegacy(t, dir)
	man, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{tuning: tuning{sealBytes: man.Segments[0].RawBytes + 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, _ := s.snapshot()
	if len(got.Segments) != 2 {
		t.Fatalf("%d segments, want one per legacy segment", len(got.Segments))
	}
	for i, seg := range got.Segments {
		if seg.legacy() || seg.MinSeq != man.Segments[i].MinSeq || seg.MaxSeq != man.Segments[i].MaxSeq {
			t.Fatalf("segment %d: codec %q seqs %d-%d, want v3 over %d-%d", i, seg.Codec,
				seg.MinSeq, seg.MaxSeq, man.Segments[i].MinSeq, man.Segments[i].MaxSeq)
		}
	}
	checkNoOrphans(t, "split", s)
	if !reflect.DeepEqual(drainStream(t, s.Stream()), want) {
		t.Fatal("migrated store's Stream differs from the fixture's records")
	}
}

// TestFollowAcrossMigration: a Follow poll over a legacy store fails as
// a poll over a store still being created does; once a read-write open
// has migrated it between polls, the next poll starts at seq 0, and
// every sequence arrives exactly once and in order as more are sealed.
func TestFollowAcrossMigration(t *testing.T) {
	dir := t.TempDir()
	total := len(copyLegacy(t, dir))
	cursors := map[string]*followCursor{}
	var got []uint64
	poll := func() {
		t.Helper()
		err := followOnce(dir, Options{ReadOnly: true}, cursors, func(_ string, seq uint64, _ []byte) error {
			got = append(got, seq)
			return nil
		})
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
	}
	poll()
	if len(got) != 0 || cursors[""].fails != 1 {
		t.Fatalf("poll over a legacy store: %d records, %d failed polls; want none and one", len(got), cursors[""].fails)
	}
	for round := 0; round < 3; round++ {
		s, err := Open(dir, Options{tuning: manual})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			if err := s.Append(mkRecord(7, total)); err != nil {
				t.Fatal(err)
			}
			total++
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		poll()
	}
	if len(got) != total {
		t.Fatalf("%d records delivered, %d written", len(got), total)
	}
	for i, seq := range got {
		if seq != uint64(i) {
			t.Fatalf("record %d arrived with seq %d", i, seq)
		}
	}
}

// FuzzRowBlockEntries walks payload as a decompressed v1/v2 row block
// with compaction's entry decoder.
func FuzzRowBlockEntries(f *testing.F) {
	// An entry length that is negative as an int: an earlier bounds
	// check passed it and the slice expression panicked.
	f.Add(binary.AppendUvarint([]byte{7}, ^uint64(0)))
	line, err := session.AppendJSON(nil, mkRecord(0, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(binary.AppendUvarint([]byte{7}, uint64(len(line))), line...))

	f.Fuzz(func(t *testing.T, payload []byte) {
		for p := payload; len(p) > 0; {
			_, line, rest, ok := rowEntry(p)
			if !ok {
				return
			}
			if len(line)+len(rest) >= len(p) {
				t.Fatalf("entry of %d bytes left %d of %d: no progress or out of bounds", len(line), len(rest), len(p))
			}
			p = rest
		}
	})
}
