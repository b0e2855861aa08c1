package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// sealedFixture builds the store the manifest tests corrupt: two
// sessions of a daemon, each sealing two months on Close, so segments
// 0–3 alternate between the months.
func sealedFixture(t testing.TB, dir string) {
	t.Helper()
	for run := 0; run < 2; run++ {
		s, err := Open(dir, Options{BlockBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		for i := run * 60; i < (run+1)*60; i++ {
			if err := s.Append(mkRecord(i%2, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// rewriteManifest applies edit to dir's manifest and writes it back the
// way a foreign tool would: plain encoding/json, no validation.
func rewriteManifest(t testing.TB, dir string, edit func(*manifest)) {
	t.Helper()
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := &manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// mixedIndexFixture builds the store the manifest tests corrupt: a copy
// of testdata/inline, whose segments 0–3 alternate between two months
// and hold their index inline, plus one more daemon session whose seal
// adds footer-form segments 4 and 5.
func mixedIndexFixture(t testing.TB, dir string) {
	t.Helper()
	copyInline(t, dir)
	s, err := Open(dir, Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 120; i < 180; i++ {
		if err := s.Append(mkRecord(i%2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// hostileManifests is the table TestHostileManifest runs and
// FuzzLoadManifest seeds from: each edit makes one segment entry lie
// about something a reader opens, indexes, slices or allocates by.
// Before loadManifest validated its input every row either panicked a
// later query or was silently accepted. field is what the Open error
// must name. The bloom and block rows edit the index the fixture's
// inline entries hold; TestHostileFooter runs them against footers.
var hostileManifests = []struct {
	name  string
	field string
	edit  func(*manifest)
}{
	{"bloom bits shorter than m", "bloom", func(m *manifest) { m.Segments[0].Bloom.Bits = m.Segments[0].Bloom.Bits[:1] }},
	{"bloom bits shorter than m (v3)", "bloom", func(m *manifest) { m.Segments[2].Bloom.Bits = nil }},
	{"bloom k zero", "bloom", func(m *manifest) { m.Segments[1].Bloom.K = 0 }},
	{"bloom k huge", "bloom", func(m *manifest) { m.Segments[1].Bloom.K = 1 << 30 }},
	{"bloom m zero", "bloom", func(m *manifest) { m.Segments[0].Bloom.M = 0 }},
	{"bloom of the v0 scheme on a v3 segment", "bloom", func(m *manifest) { m.Segments[3].Bloom.V = 0 }},
	{"bloom m not a power of two", "bloom", func(m *manifest) { m.Segments[1].Bloom.M-- }},
	{"clen negative", "block 0", func(m *manifest) { m.Segments[0].Blocks[0].CLen = -5 }},
	{"clen zero", "block 1", func(m *manifest) { m.Segments[2].Blocks[1].CLen = 0 }},
	{"clen past end of file", "block 0", func(m *manifest) { m.Segments[1].Blocks[0].CLen = 1 << 20 }},
	{"ulen overflows makeslice", "block 0", func(m *manifest) { m.Segments[0].Blocks[0].ULen = 1 << 62 }},
	{"ulen negative", "block 0", func(m *manifest) { m.Segments[1].Blocks[0].ULen = -1 }},
	{"off inside the magic", "block 0", func(m *manifest) { m.Segments[0].Blocks[0].Off = 7 }},
	{"off overflows off+clen", "block 0", func(m *manifest) { m.Segments[2].Blocks[0].Off = 1<<63 - 1 }},
	{"dlen negative", "block 0", func(m *manifest) { m.Segments[2].Blocks[0].DirLen = -1 }},
	{"dlen past clen", "block 0", func(m *manifest) { m.Segments[2].Blocks[0].DirLen = m.Segments[2].Blocks[0].CLen + 1 }},
	{"count zero", "block 0", func(m *manifest) { m.Segments[0].Blocks[0].Count = 0 }},
	{"count negative", "block 0", func(m *manifest) { m.Segments[0].Blocks[0].Count = -3 }},
	{"counts do not sum to records", "records", func(m *manifest) { m.Segments[1].Records++ }},
	{"footer-form entry without a block count", "nblocks", func(m *manifest) { m.Segments[4].NBlocks = 0 }},
	{"file escapes the directory", "file", func(m *manifest) { m.Segments[0].File = "../../../../etc/hostname" }},
	{"file not of the segment shape", "file", func(m *manifest) { m.Segments[0].File = "seg-1.hns" }},
	{"file at next_seg: the next seal would overwrite it", "file", func(m *manifest) { m.NextSeg = 3 }},
	{"file missing", "no such file", func(m *manifest) { m.Segments[1].File, m.NextSeg = "seg-000007.hns", 8 }},
	{"month unparseable", "month", func(m *manifest) { m.Segments[0].Month = "zzz" }},
	{"codec unknown", "codec", func(m *manifest) { m.Segments[1].Codec = "zstd" }},
	{"min_seq above max_seq", "min_seq", func(m *manifest) { m.Segments[0].MinSeq = m.Segments[0].MaxSeq + 1 }},
	{"max_seq at next_seq", "max_seq", func(m *manifest) { m.Segments[3].MaxSeq = m.NextSeq }},
	{"null segment entry", "null", func(m *manifest) { m.Segments[2] = nil }},
}

func TestHostileManifest(t *testing.T) {
	// One store for every row: Open fails in loadManifest, before it
	// writes anything, so only the manifest needs restoring in between.
	dir := t.TempDir()
	mixedIndexFixture(t, dir)
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range hostileManifests {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, good, 0o644); err != nil {
				t.Fatal(err)
			}
			rewriteManifest(t, dir, tc.edit)
			for _, ro := range []bool{true, false} {
				s, err := Open(dir, Options{ReadOnly: ro})
				if err == nil {
					s.Close()
					t.Fatalf("Open(ReadOnly=%v) accepted the manifest", ro)
				}
				if !strings.Contains(err.Error(), "manifest: segment") || !strings.Contains(err.Error(), tc.field) {
					t.Fatalf("Open(ReadOnly=%v): error %q does not name the segment and %q", ro, err, tc.field)
				}
			}
		})
	}
}

// FuzzLoadManifest: whatever bytes stand in for MANIFEST.json over a real
// sealed store Open, one `ip =` query and one full Stream return errors,
// never panic.
func FuzzLoadManifest(f *testing.F) {
	dir := f.TempDir()
	mixedIndexFixture(f, dir)
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, tc := range hostileManifests {
		rewriteManifest(f, dir, tc.edit)
		bad, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bad)
		if err := os.WriteFile(path, good, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			return
		}
		defer s.Close()
		if res, err := s.RunQuery(&Query{Where: Cmp(FieldIP, CmpEq, StringValue("10.93.180.79"))}); err == nil {
			for res.Next() {
			}
			res.Close()
		}
		st := s.Stream()
		for st.Next() {
		}
		st.Close()
	})
}

// TestReopenedSealMarshalsOnlyNewSegments: a reopened store keeps each
// segment entry's bytes from the manifest it read, so a seal after the
// reopen marshals only the segments it adds, and the manifest it writes
// is byte for byte the one with every entry marshalled afresh.
func TestReopenedSealMarshalsOnlyNewSegments(t *testing.T) {
	dir := t.TempDir()
	sealedFixture(t, dir)
	s, err := Open(dir, Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.mu.RLock()
	old := slices.Clone(s.man.Segments)
	s.mu.RUnlock()
	if len(old) == 0 {
		t.Fatal("the fixture has no segments")
	}
	encs := make([]*byte, len(old))
	for i, sm := range old {
		if len(sm.enc) == 0 {
			t.Fatalf("reopened segment %d (%s) has no encoding: the next save marshals it again", i, sm.File)
		}
		encs[i] = &sm.enc[0]
	}
	for i := 120; i < 180; i++ {
		if err := s.Append(mkRecord(i%2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	n := len(s.man.Segments)
	s.mu.RUnlock()
	if n <= len(old) {
		t.Fatalf("the seal added no segment: %d before, %d after", len(old), n)
	}
	for i, sm := range old {
		if len(sm.enc) == 0 || &sm.enc[0] != encs[i] {
			t.Errorf("segment %d (%s) was marshalled again by the seal", i, sm.File)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	fresh := &manifest{}
	if err := json.Unmarshal(got, fresh); err != nil {
		t.Fatal(err)
	}
	other := t.TempDir()
	if err := fresh.save(other); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(other, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the manifest after the reopened seal differs from one with every entry marshalled afresh:\n got %.300s\nwant %.300s", got, want)
	}
}
