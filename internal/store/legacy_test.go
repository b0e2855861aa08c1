package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"honeynet/internal/session"
)

// The legacy fixture (testdata/legacy, see its README) is the only
// HNSTORE1/HNSTORE2 input left: nothing in the tree writes those
// formats. The helpers here hand tests a private copy of it, and the
// tests below hold the legacy readers to the fixture's own oracle.

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

// legacySums hashes the two legacy segment files under dir.
func legacySums(t testing.TB, dir string) [2]string {
	t.Helper()
	var out [2]string
	for i := range out {
		data, err := os.ReadFile(filepath.Join(dir, segFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// openArm opens the store a format-parameterised test runs over and
// returns it with the records already in it. "v3" is a fresh store;
// "v2" is a writable copy of the legacy fixture, so whatever the test
// appends and seals lands as HNSTORE3 segments beside the HNSTORE1 and
// HNSTORE2 ones and every assertion also runs through the row readers.
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
// no longer writes: a copy of the fixture opens read-only and
// read-write, answers every query route and Stream exactly as its
// records.jsonl says, takes appends whose seals are HNSTORE3, and its
// two legacy segment files are never touched.
func TestLegacyFixture(t *testing.T) {
	dir := t.TempDir()
	want := copyLegacy(t, dir)
	sums := legacySums(t, dir)
	if got := legacySums(t, legacyDir); got != sums {
		t.Fatalf("fixture copy differs from fixture: %v vs %v", got, sums)
	}

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

		// `ip =`: record 10's address is also record 75's, so the route
		// passes both the V=0 and the V=1 filter; every other address
		// lives in one legacy segment and the other must be Bloom-pruned.
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
			if i != 10 && st.BloomPruned == 0 {
				t.Fatalf("ip = %s: no segment Bloom-pruned: %+v", ip, st)
			}
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

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	check(t, ro, want)
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	rw, err := Open(dir, Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	check(t, rw, want)
	want = append(want, fill(t, rw, 120, 2)...)
	if err := rw.Seal(); err != nil {
		t.Fatal(err)
	}
	man, _ := rw.snapshot()
	if len(man.Segments) != 4 {
		t.Fatalf("%d segments after sealing two months on top of the fixture, want 4", len(man.Segments))
	}
	for _, seg := range man.Segments[2:] {
		var magic [8]byte
		f, err := os.Open(filepath.Join(dir, seg.File))
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Read(magic[:])
		f.Close()
		if err != nil || magic != segMagicV3 || seg.Codec != codecV3 {
			t.Fatalf("%s: magic %q, codec %q; new seals must be HNSTORE3", seg.File, magic[:], seg.Codec)
		}
	}
	want = append(want, fill(t, rw, 30, 2)...) // and an unsealed tail
	check(t, rw, want)
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := legacySums(t, dir); got != sums {
		t.Fatalf("legacy segment files changed: %v, were %v", got, sums)
	}
}
