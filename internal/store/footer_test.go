package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// mustIndex returns seg's index, reading its footer if nothing has yet.
func mustIndex(t testing.TB, s *Store, seg *segmentMeta) *segIndex {
	t.Helper()
	ix, err := seg.index(s.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// footerStart is where the footer of b, a segment file, starts, as
// its trailer says.
func footerStart(b []byte) int {
	return len(b) - trailerLen - int(binary.LittleEndian.Uint32(b[len(b)-trailerLen:]))
}

// splitFooter returns a segment file's blocks and the index its footer
// holds.
func splitFooter(t testing.TB, data []byte) ([]byte, *segIndex) {
	t.Helper()
	ix, err := parseFooter(data[footerStart(data):])
	if err != nil {
		t.Fatal(err)
	}
	return data[:footerStart(data)], ix
}

// hostileFooters is the table TestHostileFooter runs and
// FuzzSegmentFooter seeds from. An index row rewrites segment 1's
// footer, CRC and all, with one value a reader opens, indexes, slices
// or allocates by made a lie — the footer form of hostileManifests'
// bloom and block rows; a raw row edits the file's bytes; a manifest
// row moves where the entry says the footer starts.
var hostileFooters = []struct {
	name string
	ix   func(*segIndex)
	raw  func([]byte) []byte
	man  func(*segmentMeta)
}{
	{name: "bloom bits shorter than m", ix: func(ix *segIndex) { ix.bloom.Bits = ix.bloom.Bits[:1] }},
	{name: "bloom k zero", ix: func(ix *segIndex) { ix.bloom.K = 0 }},
	{name: "bloom k huge", ix: func(ix *segIndex) { ix.bloom.K = 1 << 30 }},
	{name: "bloom m zero", ix: func(ix *segIndex) { ix.bloom.M = 0 }},
	{name: "bloom of the v0 scheme", ix: func(ix *segIndex) { ix.bloom.V = 0 }},
	{name: "bloom m not a power of two", ix: func(ix *segIndex) { ix.bloom.M-- }},
	{name: "clen negative", ix: func(ix *segIndex) { ix.blocks[0].CLen = -5 }},
	{name: "clen zero", ix: func(ix *segIndex) { ix.blocks[1].CLen = 0 }},
	{name: "clen past the blocks", ix: func(ix *segIndex) { ix.blocks[3].CLen += 20 }},
	{name: "ulen overflows makeslice", ix: func(ix *segIndex) { ix.blocks[0].ULen = 1 << 62 }},
	{name: "ulen negative", ix: func(ix *segIndex) { ix.blocks[0].ULen = -1 }},
	{name: "off inside the magic", ix: func(ix *segIndex) { ix.blocks[0].Off = 7 }},
	{name: "off overflows off+clen", ix: func(ix *segIndex) { ix.blocks[0].Off = 1<<63 - 1 }},
	{name: "dlen negative", ix: func(ix *segIndex) { ix.blocks[0].DirLen = -1 }},
	{name: "dlen past clen", ix: func(ix *segIndex) { ix.blocks[0].DirLen = ix.blocks[0].CLen + 1 }},
	{name: "count zero", ix: func(ix *segIndex) { ix.blocks[0].Count = 0 }},
	{name: "count negative", ix: func(ix *segIndex) { ix.blocks[0].Count = -3 }},
	{name: "counts do not sum to records", ix: func(ix *segIndex) { ix.blocks[1].Count-- }},
	{name: "a block more than the entry counts", ix: func(ix *segIndex) { ix.blocks = append(ix.blocks, ix.blocks[0]) }},
	{name: "truncated trailer", raw: func(b []byte) []byte { return b[:len(b)-5] }},
	{name: "no footer", raw: func(b []byte) []byte { return b[:footerStart(b)] }},
	{name: "footer CRC mismatch", raw: func(b []byte) []byte { b[len(b)-trailerLen-1] ^= 1; return b }},
	{name: "footer length past the file", raw: func(b []byte) []byte {
		b[len(b)-trailerLen], b[len(b)-trailerLen+1], b[len(b)-trailerLen+2], b[len(b)-trailerLen+3] = 0xff, 0xff, 0xff, 0x7f
		return b
	}},
	{name: "comp_bytes inside the blocks", man: func(sm *segmentMeta) { sm.CompBytes -= 10 }},
	{name: "comp_bytes past the file", man: func(sm *segmentMeta) { sm.CompBytes = 1 << 40 }},
	{name: "comp_bytes overflows the footer offset", man: func(sm *segmentMeta) { sm.CompBytes = 1<<63 - 1 }},
	{name: "comp_bytes negative", man: func(sm *segmentMeta) { sm.CompBytes = -1 }},
}

// hostileFooter returns good, segment 1's bytes, with tc's edit.
func hostileFooter(t testing.TB, good []byte, tc int) []byte {
	t.Helper()
	row := hostileFooters[tc]
	switch {
	case row.raw != nil:
		return row.raw(slices.Clone(good))
	case row.man != nil:
		return good
	}
	blocks, ix := splitFooter(t, good)
	ix.bloom.Bits = slices.Clone(ix.bloom.Bits)
	row.ix(ix)
	return appendFooter(slices.Clone(blocks), ix)
}

// TestHostileFooter: a segment whose footer lies opens — an open reads
// no footer — and fails at its first read, by `ip =` or by Stream,
// read-only and read-write, with a CorruptError naming the file; never
// a panic, and never an allocation the footer's values size.
func TestHostileFooter(t *testing.T) {
	dir := t.TempDir()
	sealedFixture(t, dir)
	path := filepath.Join(dir, segFileName(1))
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	goodMan, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if _, ix := splitFooter(t, good); len(ix.blocks) != 4 {
		t.Fatalf("the fixture's segment 1 has %d blocks, the rows edit 4", len(ix.blocks))
	}
	ip := mkRecord(1, 1).ClientIP // in segment 1
	for tc, row := range hostileFooters {
		t.Run(row.name, func(t *testing.T) {
			if err := os.WriteFile(path, hostileFooter(t, good, tc), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), goodMan, 0o644); err != nil {
				t.Fatal(err)
			}
			if row.man != nil {
				rewriteManifest(t, dir, func(m *manifest) { row.man(m.Segments[1]) })
			}
			for _, ro := range []bool{true, false} {
				s, err := Open(dir, Options{ReadOnly: ro})
				if err != nil {
					t.Fatalf("Open(ReadOnly=%v): %v", ro, err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := s.RunQuery(&Query{Where: Cmp(FieldIP, CmpEq, StringValue(ip))})
				if err == nil {
					for res.Next() {
					}
					err = res.Err()
					res.Close()
				}
				st := s.Stream()
				for st.Next() {
				}
				serr := st.Err()
				st.Close()
				runtime.ReadMemStats(&after)
				s.Close()
				for _, err := range []error{err, serr} {
					var ce *CorruptError
					if !errors.As(err, &ce) || ce.File != segFileName(1) || ce.Block != -1 {
						t.Fatalf("Open(ReadOnly=%v), then a read: %v; want a CorruptError for the footer of %s", ro, err, segFileName(1))
					}
				}
				if n := after.TotalAlloc - before.TotalAlloc; n > 8<<20 {
					t.Fatalf("Open(ReadOnly=%v): the failing reads allocated %d bytes", ro, n)
				}
			}
		})
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), goodMan, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := drainStream(t, s.Stream()); len(got) != 120 {
		t.Fatalf("the restored fixture streams %d records, want 120", len(got))
	}
}

// FuzzSegmentFooter: parseFooter, over any bytes as a segment's tail,
// returns an index or an error, never panics, and allocates at most a
// small multiple of its input.
func FuzzSegmentFooter(f *testing.F) {
	dir := f.TempDir()
	sealedFixture(f, dir)
	good, err := os.ReadFile(filepath.Join(dir, segFileName(1)))
	if err != nil {
		f.Fatal(err)
	}
	blocks := footerStart(good)
	f.Add(good[blocks:])
	for tc := range hostileFooters {
		if bad := hostileFooter(f, good, tc); len(bad) >= blocks {
			f.Add(bad[blocks:])
		}
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix, err := parseFooter(tail)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16*uint64(len(tail))+4096 {
			t.Fatalf("parsing %d bytes allocated %d", len(tail), n)
		}
		if err != nil {
			return
		}
		records := 0
		for _, b := range ix.blocks {
			records += b.Count
		}
		ix.check(&segmentMeta{Codec: codecV3, Records: records, NBlocks: len(ix.blocks)}, int64(len(tail)))
	})
}

// TestMetadataStatementReadsNoFooter: the statement that ends a fleet's
// time-to-first-answer, SELECT month, count(*) GROUP BY month, is
// answered from manifest entries alone on a read-only open: it loads no
// segment's index, and still counts every stored block as skipped.
func TestMetadataStatementReadsNoFooter(t *testing.T) {
	dir := t.TempDir()
	sealedFixture(t, dir)
	s, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.RunQuery(&Query{GroupBy: []Field{FieldMonth}, Aggs: []AggSpec{{Op: AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, g := range res.Groups() {
		rows += g.Aggs[0].Int
	}
	st := res.Stats()
	res.Close()
	man, _ := s.snapshot()
	var blocks int64
	for _, seg := range man.Segments {
		if seg.idx != nil || seg.idxErr != nil {
			t.Errorf("%s: the statement loaded the segment's index", seg.File)
		}
		blocks += int64(seg.NBlocks)
	}
	if rows != 120 || st.Mode != "metadata" || st.BlocksRead != 0 || st.BlocksSkipped != blocks || blocks == 0 {
		t.Fatalf("%d rows, %+v; want 120 rows in metadata mode, %d blocks skipped and none read", rows, st, blocks)
	}
}
