package store

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"honeynet/internal/session"
)

// drainStream collects and closes a Stream.
func drainStream(t testing.TB, c RecordCursor) []*session.Record {
	t.Helper()
	var out []*session.Record
	for c.Next() {
		out = append(out, c.Record())
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamMatchesLoad: Stream must yield exactly what was appended, in
// append order — sealed segments merged by seq plus the live tail — from
// a fresh store and on top of the legacy row segments.
func TestStreamMatchesLoad(t *testing.T) {
	for _, arm := range []string{"v2", "v3"} {
		t.Run(arm, func(t *testing.T) {
			s, want := openArm(t, arm)
			want = append(want, fill(t, s, 500, 3)...)
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
			// Leave a live unsealed tail on top of the sealed segments.
			for i := 500; i < 560; i++ {
				r := mkRecord(i%3, i)
				if err := s.Append(r); err != nil {
					t.Fatal(err)
				}
				want = append(want, r)
			}

			got := drainStream(t, s.Stream())
			if len(got) != len(want) {
				t.Fatalf("stream yielded %d records, appended %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("record %d differs:\n   stream %+v\n appended %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestFleetStreamMatchesLoad: the month-at-a-time fleet stream must
// yield every appended record in the canonical (Start, node, seq) order,
// including cross-node Start ties — checked against a Go sort of what
// each node appended.
func TestFleetStreamMatchesLoad(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFleetMarker(dir); err != nil {
		t.Fatal(err)
	}
	nodes := []string{"edge-a", "edge-b", "edge-c"}
	perNode := 150
	type ent struct {
		r    *session.Record
		node string
	}
	var want []ent
	for ni, node := range nodes {
		sh, err := Open(ShardDir(dir, node), Options{BlockBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perNode; i++ {
			r := mkRecord(i%3, i*len(nodes)+ni)
			if i%3 == 0 {
				// Exact Start ties across nodes exercise the node tiebreak.
				r.Start = mkRecord(0, i).Start
				r.End = r.Start.Add(45 * time.Second)
			}
			if err := sh.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, ent{r, node})
		}
		if ni != 2 { // two shards sealed, one with a live tail
			if err := sh.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// want is in (node, seq) order; a stable sort on (Start, node) is the
	// canonical order.
	sort.SliceStable(want, func(i, j int) bool {
		if !want[i].r.Start.Equal(want[j].r.Start) {
			return want[i].r.Start.Before(want[j].r.Start)
		}
		return want[i].node < want[j].node
	})

	fl, err := OpenFleet(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	got := drainStream(t, fl.Stream())
	if len(got) != len(want) {
		t.Fatalf("fleet stream yielded %d records, appended %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i].r) {
			t.Fatalf("record %d differs:\n   stream %+v\n appended %+v", i, got[i], want[i].r)
		}
	}
}

// TestOrderByLimitMatchesFullSort: the pushed-down top-k heap must
// return exactly what a stable full sort of the unordered result would
// — same keys, same tie order (store order) — for asc and desc, with
// and without LIMIT, over v3 segments alone and beside the legacy row
// segments.
func TestOrderByLimitMatchesFullSort(t *testing.T) {
	for _, arm := range []string{"v2", "v3"} {
		t.Run(arm, func(t *testing.T) {
			s, _ := openArm(t, arm)
			recs := make([]*session.Record, 0, 900)
			for i := 0; i < 900; i++ {
				recs = append(recs, mkRecord(i%2, i))
			}
			sealAll(t, s, recs)

			cases := []struct {
				name  string
				field Field
				desc  bool
				limit int
				where *Pred
			}{
				{"ip-asc-limit", FieldIP, false, 25, nil},
				{"ip-desc-limit", FieldIP, true, 25, nil},
				{"start-desc-limit", FieldStart, true, 10, nil},
				{"port-asc-nolimit", FieldPort, false, 0, nil},
				{"ip-asc-filtered", FieldIP, false, 40,
					Cmp(FieldProto, CmpEq, StringValue(session.ProtoSSH))},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					// Reference: unordered scan in store order, stable-sorted
					// on the key. SliceStable preserves store order on ties —
					// the same tie-break the heap's arrival index encodes.
					base := runRows(t, s, &Query{Where: tc.where})
					sort.SliceStable(base, func(i, j int) bool {
						c := compareValues(fieldValue(tc.field, base[i]), fieldValue(tc.field, base[j]))
						if tc.desc {
							c = -c
						}
						return c < 0
					})
					if tc.limit > 0 && len(base) > tc.limit {
						base = base[:tc.limit]
					}

					got := runRows(t, s, &Query{
						Where: tc.where, OrderBy: tc.field, Desc: tc.desc, Limit: tc.limit,
					})
					if len(got) != len(base) {
						t.Fatalf("got %d rows, want %d", len(got), len(base))
					}
					for i := range base {
						if got[i].ID != base[i].ID {
							t.Fatalf("row %d: got ID %d, want %d", i, got[i].ID, base[i].ID)
						}
					}
				})
			}
		})
	}
}

// runRows drains a row-mode query into a slice.
// inMonth is the predicate for one partition month.
func inMonth(m time.Time) *Pred { return Cmp(FieldMonth, CmpEq, MonthValue(m)) }

func runRows(t *testing.T, s *Store, q *Query) []*session.Record {
	t.Helper()
	res, err := s.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var out []*session.Record
	for res.Next() {
		out = append(out, res.Record())
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFleetOrderByLimit: ORDER BY/LIMIT through the fleet scatter path
// must match a stable sort of the fleet-canonical unordered result.
func TestFleetOrderByLimit(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFleetMarker(dir); err != nil {
		t.Fatal(err)
	}
	for ni, node := range []string{"n-a", "n-b"} {
		sh, err := Open(ShardDir(dir, node), Options{BlockBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 90; i++ {
			if err := sh.Append(mkRecord(i%2, i*2+ni)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.Seal(); err != nil {
			t.Fatal(err)
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

	collect := func(q *Query) []uint64 {
		res, err := fl.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		var ids []uint64
		for res.Next() {
			ids = append(ids, res.Record().ID)
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return ids
	}

	baseRes, err := fl.RunQuery(&Query{})
	if err != nil {
		t.Fatal(err)
	}
	var base []*session.Record
	for baseRes.Next() {
		base = append(base, baseRes.Record())
	}
	if err := baseRes.Err(); err != nil {
		t.Fatal(err)
	}
	baseRes.Close()
	sort.SliceStable(base, func(i, j int) bool {
		return compareValues(fieldValue(FieldIP, base[i]), fieldValue(FieldIP, base[j])) < 0
	})
	want := make([]uint64, 0, 15)
	for i := 0; i < 15 && i < len(base); i++ {
		want = append(want, base[i].ID)
	}

	got := collect(&Query{OrderBy: FieldIP, Limit: 15})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet ORDER BY mismatch:\n got %v\nwant %v", got, want)
	}
}
