package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"honeynet/internal/session"
)

// The legacy fixture (testdata/legacy, see its README) is the only
// HNSTORE1/HNSTORE2 input left: nothing in the tree writes those
// formats, and only compaction reads them. The helpers here hand tests
// a private copy of it, and the tests below hold the migration to the
// fixture's own oracle.

const legacyDir = "testdata/legacy"

// legacyRecords reads the fixture's oracle: its records in append order.
func legacyRecords(t testing.TB) []*session.Record {
	t.Helper()
	f, err := os.Open(filepath.Join(legacyDir, "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := session.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// copyLegacy copies the fixture's store files into dir (created if
// need be) and returns the oracle records.
func copyLegacy(t testing.TB, dir string) []*session.Record {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{manifestName, segFileName(0), segFileName(1)} {
		data, err := os.ReadFile(filepath.Join(legacyDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return legacyRecords(t)
}

// legacySums are the SHA-256 sums of the fixture's two segment files,
// as its README pins them.
var legacySums = [2]string{
	"a48106cb5c4f32c6c2315142bc6ef50a855b2787d8783f581c558e94ef2a8f44",
	"09bbc8489b4a745ace2911e036d4eae3eacff2aa56519c3c23091ad05629812e",
}

// checkFixtureSums fails t unless testdata/legacy's segment files still
// hash to legacySums: a test that migrates a copy must never reach the
// fixture itself.
func checkFixtureSums(t testing.TB) {
	t.Helper()
	for i, want := range legacySums {
		data, err := os.ReadFile(filepath.Join(legacyDir, segFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			t.Fatalf("%s/%s changed: sha256 %x, pinned %s", legacyDir, segFileName(i), sum, want)
		}
	}
}

// openArm opens the store a format-parameterised test runs over and
// returns it with the records already in it. "v3" is a fresh store;
// "v2" is a writable copy of the legacy fixture, which the open
// migrates to one HNSTORE3 segment, so every assertion also runs over
// migrated records beside whatever the test appends and seals.
func openArm(t *testing.T, arm string) (*Store, []*session.Record) {
	t.Helper()
	dir := t.TempDir()
	var have []*session.Record
	if arm == "v2" {
		have = copyLegacy(t, dir)
	}
	s, err := Open(dir, Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, have
}

// TestLegacyFixture is the acceptance check for the formats the store
// no longer writes: a read-only open of a copy of the fixture is refused
// with ErrLegacySegment; the first read-write open migrates both legacy
// segments into one HNSTORE3 segment with a v=1, power-of-two Bloom
// filter; and after that the store answers every query route and Stream
// exactly as records.jsonl says, read-only and read-write, and takes
// appends whose seals are HNSTORE3 too.
func TestLegacyFixture(t *testing.T) {
	dir := t.TempDir()
	want := copyLegacy(t, dir)
	checkFixtureSums(t)

	check := func(t *testing.T, s *Store, want []*session.Record) {
		t.Helper()
		got := drainStream(t, s.Stream())
		if len(got) != len(want) {
			t.Fatalf("Stream yielded %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("Stream record %d:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}

		// Row-mode queries scan month by month, append order within each.
		scan := append([]*session.Record(nil), want...)
		sort.SliceStable(scan, func(i, j int) bool { return scan[i].Month().Before(scan[j].Month()) })

		// `ip =`: record 10's address is also record 75's, which sat in
		// the other legacy segment; an address the store never saw is
		// Bloom-pruned from every segment.
		ids := func(q *Query) ([]uint64, PlanStats) {
			res, err := s.RunQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			defer res.Close()
			var out []uint64
			for res.Next() {
				out = append(out, res.Record().ID)
			}
			if err := res.Err(); err != nil {
				t.Fatal(err)
			}
			return out, res.Stats()
		}
		oracleIDs := func(keep func(*session.Record) bool) []uint64 {
			var out []uint64
			for _, r := range scan {
				if keep(r) {
					out = append(out, r.ID)
				}
			}
			return out
		}
		for _, i := range []int{10, 3, 60} {
			ip := want[i].ClientIP
			got, st := ids(&Query{Where: Cmp(FieldIP, CmpEq, StringValue(ip))})
			exp := oracleIDs(func(r *session.Record) bool { return r.ClientIP == ip })
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("ip = %s: got %v, want %v", ip, got, exp)
			}
			if st.BloomChecked == 0 {
				t.Fatalf("ip = %s: the Bloom route probed nothing: %+v", ip, st)
			}
		}
		if got, st := ids(&Query{Where: Cmp(FieldIP, CmpEq, StringValue("203.0.113.250"))}); len(got) != 0 || st.BloomPruned != st.BloomChecked || st.BloomPruned == 0 {
			t.Fatalf("ip = an unseen address: rows %v, %+v; want every segment Bloom-pruned", got, st)
		}

		// Projection: only the selected fields are promised.
		res, err := s.RunQuery(&Query{Select: []Field{FieldIP, FieldUser}})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for res.Next() {
			r, w := res.Record(), scan[n]
			if r.ClientIP != w.ClientIP || !reflect.DeepEqual(r.Logins, w.Logins) {
				t.Fatalf("projection row %d: got %+v, want ip/logins of %+v", n, r, w)
			}
			n++
		}
		if err := res.Err(); err != nil || n != len(want) {
			t.Fatalf("projection: %d rows (err %v), want %d", n, err, len(want))
		}
		res.Close()

		// Aggregate, with a predicate metadata cannot decide.
		res, err = s.RunQuery(&Query{
			Where:   Cmp(FieldLogins, CmpGe, IntValue(1)),
			GroupBy: []Field{FieldKind},
			Aggs:    []AggSpec{{Op: AggCount}, {Op: AggCountDistinct, Field: FieldIP}},
		})
		if err != nil {
			t.Fatal(err)
		}
		counts, distinct := map[session.Kind]int64{}, map[session.Kind]map[string]bool{}
		for _, r := range want {
			if len(r.Logins) >= 1 {
				k := r.Kind()
				counts[k]++
				if distinct[k] == nil {
					distinct[k] = map[string]bool{}
				}
				distinct[k][r.ClientIP] = true
			}
		}
		if len(res.Groups()) != len(counts) {
			t.Fatalf("aggregate: %d groups, want %d", len(res.Groups()), len(counts))
		}
		for _, g := range res.Groups() {
			k := session.Kind(g.Keys[0].Int)
			if g.Aggs[0].Int != counts[k] || g.Aggs[1].Int != int64(len(distinct[k])) {
				t.Fatalf("aggregate kind %s: got %v, want count %d distinct %d", k, g.Aggs, counts[k], len(distinct[k]))
			}
		}

		// ORDER BY … LIMIT against a stable sort of the oracle.
		sorted := append([]*session.Record(nil), scan...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].ClientPort > sorted[j].ClientPort })
		top, _ := ids(&Query{OrderBy: FieldPort, Desc: true, Limit: 9})
		for i, id := range top {
			if id != sorted[i].ID {
				t.Fatalf("ORDER BY port DESC row %d: ID %d, want %d", i, id, sorted[i].ID)
			}
		}
		if len(top) != 9 {
			t.Fatalf("ORDER BY … LIMIT 9 returned %d rows", len(top))
		}
	}

	if _, err := Open(dir, Options{ReadOnly: true}); !errors.Is(err, ErrLegacySegment) ||
		!strings.Contains(err.Error(), segFileName(0)) || !strings.Contains(err.Error(), "read-write open") {
		t.Fatalf("read-only open of a legacy store: %v; want ErrLegacySegment naming %s and the read-write open", err, segFileName(0))
	}

	rw, err := Open(dir, Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	man, _ := rw.snapshot()
	if len(man.Segments) != 1 {
		t.Fatalf("%d segments after migration, want 1", len(man.Segments))
	}
	seg := man.Segments[0]
	checkV3(t, dir, seg)
	ix := mustIndex(t, rw, seg)
	if b := ix.bloom; b.V != 1 || b.M&(b.M-1) != 0 {
		t.Fatalf("migrated Bloom filter v=%d m=%d, want v=1 over a power of two", b.V, b.M)
	}
	if seg.MinSeq != 0 || seg.MaxSeq != 99 || seg.Records != 100 || len(ix.blocks) < 2 || man.NextSeq != 100 {
		t.Fatalf("migrated segment seqs [%d, %d], %d records in %d blocks, next_seq %d",
			seg.MinSeq, seg.MaxSeq, seg.Records, len(ix.blocks), man.NextSeq)
	}
	for i := 0; i < 2; i++ {
		if exists(filepath.Join(dir, segFileName(i))) {
			t.Fatalf("legacy %s still on disk after migration", segFileName(i))
		}
	}
	check(t, rw, want)
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	check(t, ro, want)
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	rw, err = Open(dir, Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, fill(t, rw, 120, 2)...)
	if err := rw.Seal(); err != nil {
		t.Fatal(err)
	}
	man, _ = rw.snapshot()
	if len(man.Segments) != 3 {
		t.Fatalf("%d segments after sealing two months on top of the migrated fixture, want 3", len(man.Segments))
	}
	for _, seg := range man.Segments[1:] {
		checkV3(t, dir, seg)
	}
	want = append(want, fill(t, rw, 30, 2)...) // and an unsealed tail
	check(t, rw, want)
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	checkFixtureSums(t)
}

// checkV3 fails t unless seg is an HNSTORE3 segment by its magic and
// its manifest codec.
func checkV3(t *testing.T, dir string, seg *segmentMeta) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, seg.File))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, segMagicV3[:]) || seg.Codec != codecV3 {
		t.Fatalf("%s: magic %q, codec %q; want HNSTORE3", seg.File, data[:min(8, len(data))], seg.Codec)
	}
}
