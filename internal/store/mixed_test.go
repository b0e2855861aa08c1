package store

import (
	"reflect"
	"testing"
	"time"

	"honeynet/internal/session"
)

// Mixed-format coverage: one store (or fleet) that began with segments
// of every on-disk generation — v1 (DEFLATE rows) and v2 (LZ rows) from
// the legacy fixture — and took v3 (columnar stripes) seals from this
// tree's writer must, once its read-write open has migrated the legacy
// segments, behave byte-identically to a uniform store over the same
// records.

// mixedRecs are the records the tests seal on top of the fixture: three
// months around the fixture's own (2021-12), so that month ends up
// holding a migrated segment and a sealed one.
func mixedRecs(n int) []*session.Record {
	recs := make([]*session.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, mkRecord(6+i%3, i))
	}
	return recs
}

// sealInto opens the store at dir (creating it if need be, migrating
// any legacy segment), appends and seals recs as v3 segments, and
// closes it.
func sealInto(t *testing.T, dir string, recs []*session.Record) {
	t.Helper()
	s, err := Open(dir, Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	sealAll(t, s, recs)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMixedFormatStore(t *testing.T) {
	dir := t.TempDir()
	legacy := copyLegacy(t, dir)
	added := mixedRecs(600)
	sealInto(t, dir, added) // migrates the fixture's v1 and v2, seals v3 beside
	recs := append(legacy, added...)

	mixed, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.Close()

	// The fixture's month holds the migrated segment and a sealed one;
	// nothing left is legacy.
	man, _ := mixed.snapshot()
	inFixtureMonth := 0
	for _, seg := range man.Segments {
		checkV3(t, dir, seg)
		if seg.Month == "2021-12" {
			inFixtureMonth++
		}
	}
	if len(man.Segments) != 4 || inFixtureMonth != 2 {
		t.Fatalf("%d segments, %d of them in 2021-12; want 4 and 2", len(man.Segments), inFixtureMonth)
	}

	refDir := t.TempDir()
	sealInto(t, refDir, recs)
	ref, err := Open(refDir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// Stream: identical records in identical order.
	a, b := drainStream(t, ref.Stream()), drainStream(t, mixed.Stream())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("mixed-format Stream differs from uniform (lengths %d vs %d)", len(a), len(b))
	}
	if !reflect.DeepEqual(a, recs) {
		t.Fatalf("Stream differs from the appended records")
	}

	// RunQuery: every route returns the same rows from both stores.
	for qi, q := range mixedQueries(legacy[10].ClientIP) {
		if !reflect.DeepEqual(runIDsOrGroups(t, ref, q), runIDsOrGroups(t, mixed, q)) {
			t.Fatalf("query %d: mixed store result differs from uniform", qi)
		}
	}
	checkFixtureSums(t)
}

// mixedQueries is every RunQuery route — predicate scan, projection,
// IP/Bloom (over ip), time range, ORDER BY pushdown, aggregate — as the
// store tests compare two stores over the same records.
func mixedQueries(ip string) []*Query {
	return []*Query{
		{Where: Cmp(FieldProto, CmpEq, StringValue(session.ProtoSSH))},
		{Where: Cmp(FieldKind, CmpEq, KindValue(session.CommandExec)),
			Select: []Field{FieldIP, FieldStart}},
		{Where: Cmp(FieldIP, CmpEq, StringValue(ip))},
		{Where: inMonth(time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)), Limit: 9},
		{OrderBy: FieldPort, Desc: true, Limit: 11},
		{GroupBy: []Field{FieldProto}, Aggs: []AggSpec{{Op: AggCount}}},
	}
}

// runIDsOrGroups runs q and flattens the result to a comparable shape:
// record IDs for row mode, group rows for aggregate mode.
func runIDsOrGroups(t *testing.T, s Reader, q *Query) interface{} {
	t.Helper()
	res, err := s.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Aggregated() {
		return res.Groups()
	}
	var ids []uint64
	for res.Next() {
		ids = append(ids, res.Record().ID)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestMixedFormatFleet: a fleet one of whose shards began with legacy
// segments must scatter-gather exactly like a uniform fleet.
func TestMixedFormatFleet(t *testing.T) {
	build := func(withFixture bool) *Fleet {
		dir := t.TempDir()
		if err := WriteFleetMarker(dir); err != nil {
			t.Fatal(err)
		}
		for ni, node := range []string{"n-a", "n-b", "n-c"} {
			var recs []*session.Record
			if ni == 0 {
				if withFixture {
					copyLegacy(t, ShardDir(dir, node))
				} else {
					recs = legacyRecords(t)
				}
			}
			for i := 0; i < 120; i++ {
				recs = append(recs, mkRecord(6+i%2, i*3+ni))
			}
			sealInto(t, ShardDir(dir, node), recs)
		}
		fl, err := OpenFleet(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fl.Close() })
		return fl
	}
	uniform := build(false)
	mixed := build(true)

	want, got := drainStream(t, uniform.Stream()), drainStream(t, mixed.Stream())
	if len(want) != 100+3*120 || !reflect.DeepEqual(want, got) {
		t.Fatalf("mixed fleet Stream differs from uniform (lengths %d vs %d)", len(got), len(want))
	}

	queries := []*Query{
		{Where: Cmp(FieldProto, CmpEq, StringValue(session.ProtoTelnet))},
		{OrderBy: FieldIP, Limit: 13},
		{GroupBy: []Field{FieldKind}, Aggs: []AggSpec{{Op: AggCount}}},
	}
	for qi, q := range queries {
		if !reflect.DeepEqual(runIDsOrGroups(t, uniform, q), runIDsOrGroups(t, mixed, q)) {
			t.Fatalf("fleet query %d: mixed result differs from uniform", qi)
		}
	}
	checkFixtureSums(t)
}
