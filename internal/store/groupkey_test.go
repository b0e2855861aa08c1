package store

import (
	"testing"
	"time"

	"honeynet/internal/session"
)

// TestGroupAndDistinctKeysExact: group keys and count(distinct) values
// compare as values, not as their rendering. Four starts inside one
// second are four values, and ("a\x00\x01b", "c") and ("a", "b\x00\x01c")
// are two groups although their old concatenated keys coincide — over a
// store (sealed rows and a live tail) and over a fleet whose shards each
// hold one side of every collision.
func TestGroupAndDistinctKeysExact(t *testing.T) {
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]*session.Record, 4)
	for i := range recs {
		r := mkRecord(1, i)
		r.Start = base.Add(time.Duration(i) * 200 * time.Millisecond)
		r.End = r.Start.Add(time.Second)
		recs[i] = r
	}
	recs[0].HoneypotID, recs[0].ClientVersion = "a\x00\x01b", "c"
	recs[1].HoneypotID, recs[1].ClientVersion = "a", "b\x00\x01c"

	s, err := Open(t.TempDir(), Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sealAll(t, s, recs[:2])
	for _, r := range recs[2:] {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	if err := WriteFleetMarker(dir); err != nil {
		t.Fatal(err)
	}
	for n, node := range []string{"edge-a", "edge-b"} {
		sh, err := Open(ShardDir(dir, node), Options{BlockBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		sealAll(t, sh, []*session.Record{recs[n], recs[n+2]})
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fl, err := OpenFleet(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	for _, src := range []struct {
		name string
		r    Reader
	}{{"store", s}, {"fleet", fl}} {
		for _, c := range []struct {
			what string
			q    *Query
			rows int
			agg  int64
		}{
			{"count(distinct start)", &Query{Aggs: []AggSpec{{Op: AggCountDistinct, Field: FieldStart}}}, 1, 4},
			{"GROUP BY start", &Query{GroupBy: []Field{FieldStart}, Aggs: []AggSpec{{Op: AggCount}}}, 4, 1},
			{"GROUP BY hp, client_ver", &Query{GroupBy: []Field{FieldHoneypot, FieldClientVer}, Aggs: []AggSpec{{Op: AggCount}}}, 3, -1},
		} {
			groups := runIDsOrGroups(t, src.r, c.q).([]GroupRow)
			if len(groups) != c.rows {
				t.Errorf("%s: %s: %d groups, want %d: %v", src.name, c.what, len(groups), c.rows, groups)
				continue
			}
			for _, g := range groups {
				if c.agg >= 0 && g.Aggs[0].Int != c.agg {
					t.Errorf("%s: %s: group %v counts %d, want %d", src.name, c.what, g.Keys, g.Aggs[0].Int, c.agg)
				}
			}
		}
	}
}
