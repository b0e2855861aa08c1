package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// manual is the tuning of a store that seals and syncs only when told
// to.
var manual = tuning{sealBytes: -1, syncEvery: -1}

func TestOptionsValidate(t *testing.T) {
	ok := []Options{
		{},
		{tuning: manual}, // documented disable sentinels
		{BlockBytes: 4096},
	}
	for i, o := range ok {
		s, err := Open(t.TempDir(), o)
		if err != nil {
			t.Errorf("options %d: unexpected error: %v", i, err)
			continue
		}
		s.Close()
	}
	bad := []Options{
		{BlockBytes: -1},
	}
	for i, o := range bad {
		if _, err := Open(t.TempDir(), o); err == nil {
			t.Errorf("options %d (%+v): Open accepted invalid options", i, o)
		}
	}
}

// TestBackgroundSealOverlapsAppends drives enough data through a small
// sealBytes that several auto-seals trigger while appends keep coming.
// The seals must run in the background (sealBackground counts them),
// and the final history must be the exact append order with nothing
// lost or duplicated across the WAL rotations.
func TestBackgroundSealOverlapsAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{tuning: tuning{sealBytes: 32 << 10, syncEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	want := fill(t, s, n, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.sealBackground.Load() == 0 {
		t.Fatal("no background seal ran despite sealBytes being exceeded many times over")
	}

	s2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := drainStream(t, s2.Stream())
	if len(got) != n {
		t.Fatalf("streamed %d records, want %d", len(got), n)
	}
	for i := range want {
		if w, g := marshal(t, want[i]), marshal(t, got[i]); !bytes.Equal(w, g) {
			t.Fatalf("record %d not identical after background seals:\n want %s\n  got %s", i, w, g)
		}
	}
}

// TestCrashDuringBackgroundSealFinished reconstructs the on-disk state
// of a crash after WAL rotation but before the background seal
// committed: a rotated-aside wal-sealing.jsonl whose base matches the
// manifest, plus an active WAL with appends that arrived during the
// seal. Open must finish the seal from the frozen file and then replay
// the active WAL on top, preserving exact append order.
func TestCrashDuringBackgroundSealFinished(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{tuning: manual})
	if err != nil {
		t.Fatal(err)
	}
	const sealed = 60
	want := fill(t, s, sealed, 2)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.walF.Close() // crash without Close

	// Rotate by hand: the WAL (base 0, matching the manifest) becomes
	// the frozen file, and a fresh WAL binds at base=sealed with the
	// records appended while the doomed seal was running.
	if err := os.Rename(filepath.Join(dir, walName), filepath.Join(dir, walSealingName)); err != nil {
		t.Fatal(err)
	}
	var wal bytes.Buffer
	fmt.Fprintf(&wal, "{\"_wal\":{\"base\":%d}}\n", sealed)
	const during = 10
	for i := 0; i < during; i++ {
		r := mkRecord(i%2, sealed+i)
		want = append(want, r)
		wal.Write(marshal(t, r))
		wal.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, walName), wal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if s2.Segments() == 0 {
		t.Fatal("interrupted background seal was not finished on Open")
	}
	if got := s2.Len(); got != sealed+during {
		t.Fatalf("store holds %d records, want %d", got, sealed+during)
	}
	got := drainStream(t, s2.Stream())
	for i := range want {
		if w, g := marshal(t, want[i]), marshal(t, got[i]); !bytes.Equal(w, g) {
			t.Fatalf("record %d not identical after seal recovery:\n want %s\n  got %s", i, w, g)
		}
	}
}

// TestStaleFrozenWALDiscarded covers the other branch: the background
// seal committed its manifest, but the crash hit before the frozen WAL
// was removed. Its base is behind the manifest, so Open must discard it
// rather than replay records that already live in segments.
func TestStaleFrozenWALDiscarded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{tuning: manual})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	fill(t, s, n, 2)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	preSeal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil { // manifest now at NextSeq=n
		t.Fatal(err)
	}
	s.walF.Close() // crash without Close

	// The pre-seal WAL (base 0) reappears as the frozen file: exactly
	// what a crash between manifest commit and frozen-WAL removal
	// leaves behind.
	if err := os.WriteFile(filepath.Join(dir, walSealingName), preSeal, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if drops := s2.staleWALDrops.Load(); drops != 1 {
		t.Fatalf("stale WAL drops = %d, want 1", drops)
	}
	if got := s2.Len(); got != n {
		t.Fatalf("store holds %d records after stale frozen WAL, want %d (no duplicates)", got, n)
	}
	if exists(filepath.Join(dir, walSealingName)) {
		t.Fatal("stale frozen WAL still on disk after Open")
	}
}

// TestCodecsByteIdentical holds compaction's two row decoders to the
// same oracle: the fixture's v1 (flate) and v2 (lz) segments must each
// read back, line for line, the bytes records.jsonl says were appended,
// and each must carry its own format markers (segment magic, manifest
// codec field).
func TestCodecsByteIdentical(t *testing.T) {
	dir := legacyDir // read in place: nothing here writes
	want := legacyRecords(t)
	man, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) != 2 {
		t.Fatalf("fixture has %d segments, want 2", len(man.Segments))
	}

	for i, tc := range []struct {
		magic [8]byte
		codec string
	}{{segMagicV1, ""}, {segMagicV2, codecLZ}} {
		seg := man.Segments[i]
		if seg.Codec != tc.codec {
			t.Fatalf("%s: manifest codec %q, want %q", seg.File, seg.Codec, tc.codec)
		}
		data, err := os.ReadFile(filepath.Join(dir, seg.File))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, tc.magic[:]) {
			t.Fatalf("%s: magic %q, want %q", seg.File, data[:8], tc.magic[:])
		}
		if len(seg.Blocks) < 2 {
			t.Fatalf("%s: %d blocks; the fixture must be multi-block", seg.File, len(seg.Blocks))
		}
		seq := seg.MinSeq
		err = eachRowEntry(dir, seg, func(_ int, gotSeq uint64, line []byte) error {
			if seq > seg.MaxSeq {
				t.Fatalf("%s: trailing entry past max_seq: seq %d", seg.File, gotSeq)
			}
			if exp := marshal(t, want[seq]); gotSeq != seq || !bytes.Equal(line, exp) {
				t.Fatalf("%s: got seq %d %s\nwant seq %d %s", seg.File, gotSeq, line, seq, exp)
			}
			seq++
			return nil
		})
		if err != nil || seq != seg.MaxSeq+1 {
			t.Fatalf("%s: read through seq %d of %d: %v", seg.File, seq, seg.MaxSeq, err)
		}
	}

	// v1 manifests predate the codec field and must keep reading without
	// it; the v1 entry's filter is the V=0 scheme, which omits "v" too.
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(raw, []byte(`"codec"`)) != 1 || !bytes.Contains(raw, []byte(`"codec":"lz"`)) {
		t.Fatal("fixture manifest: want exactly one codec field, on the lz entry")
	}
	if bytes.Count(raw, []byte(`"v":1`)) != 1 || man.Segments[0].Bloom.V != 0 {
		t.Fatal("fixture manifest: want a V=0 filter on the v1 entry and V=1 on the v2 entry")
	}
}
