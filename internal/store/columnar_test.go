package store

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"honeynet/internal/session"
)

// openSmall opens a fresh store with blocks small enough that a few
// hundred test records span several.
func openSmall(t *testing.T) *Store {
	t.Helper()
	s, _ := openArm(t, "v3")
	return s
}

// sealAll appends recs and seals them.
func sealAll(t *testing.T, s *Store, recs []*session.Record) {
	t.Helper()
	for i, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatalf("seal: %v", err)
	}
}

// TestColumnarLoadMatchesRowFormat: what a sealed store streams back is
// what was appended, record for record (the name predates the row
// writers' removal; the oracle is now the input, not a second format).
func TestColumnarLoadMatchesRowFormat(t *testing.T) {
	recs := make([]*session.Record, 0, 400)
	for i := 0; i < 400; i++ {
		recs = append(recs, mkRecord(i%3, i))
	}
	s := openSmall(t)
	sealAll(t, s, recs)

	got := drainStream(t, s.Stream())
	if len(got) != len(recs) {
		t.Fatalf("streamed %d records, appended %d", len(got), len(recs))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Fatalf("record %d differs:\n appended %+v\n streamed %+v", i, recs[i], got[i])
		}
	}
	// The manifest must say v3, and the file must carry HNSTORE3.
	man, _ := s.snapshot()
	if len(man.Segments) == 0 {
		t.Fatal("no sealed segments")
	}
	for _, seg := range man.Segments {
		if seg.Codec != codecV3 {
			t.Fatalf("segment %s: codec %q, want %q", seg.File, seg.Codec, codecV3)
		}
		if mustIndex(t, s, seg).blocks[0].DirLen <= 0 {
			t.Fatalf("segment %s: missing directory length", seg.File)
		}
	}
}

// TestColumnarRunQueryMatchesRowFormat: every query route over sealed
// columnar segments returns what a Go loop over the appended records
// selects, in scan order (months ascend, append order within each).
func TestColumnarRunQueryMatchesRowFormat(t *testing.T) {
	recs := make([]*session.Record, 0, 600)
	for i := 0; i < 600; i++ {
		recs = append(recs, mkRecord(i%2, i))
	}
	s := openSmall(t)
	sealAll(t, s, recs)
	scan := append([]*session.Record(nil), recs...)
	sort.SliceStable(scan, func(i, j int) bool { return scan[i].Month().Before(scan[j].Month()) })

	june := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	may := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC)
	cases := []struct {
		q    *Query
		keep func(*session.Record) bool
		// same compares a returned row with the appended record; nil
		// means the query returns full records and DeepEqual applies.
		same func(got, want *session.Record) bool
	}{
		{q: &Query{Where: Cmp(FieldProto, CmpEq, StringValue(session.ProtoSSH)),
			Select: []Field{FieldIP, FieldStart}},
			keep: func(r *session.Record) bool { return r.Protocol == session.ProtoSSH },
			// A projection promises the selected fields and the always-
			// decoded scalars; the rest of the row is unspecified.
			same: func(got, want *session.Record) bool {
				return got.ID == want.ID && got.Start.Equal(want.Start) && got.ClientIP == want.ClientIP
			}},
		{q: &Query{Where: Cmp(FieldKind, CmpEq, KindValue(session.CommandExec))},
			keep: func(r *session.Record) bool { return r.Kind() == session.CommandExec }},
		{q: &Query{Where: And(
			Cmp(FieldProto, CmpEq, StringValue(session.ProtoTelnet)),
			Cmp(FieldStart, CmpGe, TimeValue(june)))},
			keep: func(r *session.Record) bool { return r.Protocol == session.ProtoTelnet && !r.Start.Before(june) }},
		{q: &Query{Where: Cmp(FieldIP, CmpEq, StringValue(recs[42].ClientIP))},
			keep: func(r *session.Record) bool { return r.ClientIP == recs[42].ClientIP }},
		{q: &Query{Where: Not(Cmp(FieldProto, CmpEq, StringValue(session.ProtoSSH)))},
			keep: func(r *session.Record) bool { return r.Protocol != session.ProtoSSH }},
		{q: &Query{Where: inMonth(may), Limit: 7},
			keep: func(r *session.Record) bool { return r.Month().Equal(may) }},
	}
	for qi, tc := range cases {
		var want []*session.Record
		for _, r := range scan {
			if tc.keep(r) && (tc.q.Limit == 0 || len(want) < tc.q.Limit) {
				want = append(want, r)
			}
		}
		// Full-record DeepEqual, not just IDs: the columnar path decodes
		// (and sidecar-prefills) field by field, and every byte of every
		// field must match what was appended.
		same := tc.same
		if same == nil {
			same = func(got, want *session.Record) bool { return reflect.DeepEqual(got, want) }
		}
		got := runRows(t, s, tc.q)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d rows, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if !same(got[i], want[i]) {
				t.Fatalf("query %d row %d differs:\n got %+v\nwant %+v", qi, i, got[i], want[i])
			}
		}
	}
}

// TestColumnarZonePruning: a narrow time slice of a multi-block month
// must skip blocks on the directory zone maps alone.
func TestColumnarZonePruning(t *testing.T) {
	recs := make([]*session.Record, 0, 2000)
	for i := 0; i < 2000; i++ {
		recs = append(recs, mkRecord(0, i))
	}
	s := openSmall(t)
	sealAll(t, s, recs)

	// Records ascend in time; the last few land in the last block.
	from := recs[len(recs)-3].Start
	res, err := s.RunQuery(&Query{Where: Cmp(FieldStart, CmpGe, TimeValue(from))})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	n := 0
	for res.Next() {
		n++
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("got %d records, want 3", n)
	}
	st := res.Stats()
	if st.BlocksZonePruned == 0 {
		t.Fatalf("expected zone-pruned blocks, stats: %+v", st)
	}
	if st.BlocksRead >= int64(len(mustSegBlocks(t, s))) {
		t.Fatalf("read %d of %d blocks; pruning did nothing", st.BlocksRead, len(mustSegBlocks(t, s)))
	}
}

func mustSegBlocks(t testing.TB, s *Store) []blockMeta {
	man, _ := s.snapshot()
	var out []blockMeta
	for _, seg := range man.Segments {
		out = append(out, mustIndex(t, s, seg).blocks...)
	}
	return out
}

// TestColumnarProjectionSkipsStripes: a narrow projection must touch
// fewer stripe bytes than a full-record scan of the same store.
func TestColumnarProjectionSkipsStripes(t *testing.T) {
	recs := make([]*session.Record, 0, 1000)
	for i := 0; i < 1000; i++ {
		recs = append(recs, mkRecord(0, i))
	}
	s := openSmall(t)
	sealAll(t, s, recs)

	run := func(sel []Field) PlanStats {
		res, err := s.RunQuery(&Query{Select: sel})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		for res.Next() {
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return res.Stats()
	}
	narrow := run([]Field{FieldIP, FieldStart})
	full := run(nil)
	if narrow.StripesRead == 0 || full.StripesRead == 0 {
		t.Fatalf("stripe stats missing: narrow %+v full %+v", narrow, full)
	}
	if narrow.StripeBytes >= full.StripeBytes {
		t.Fatalf("narrow projection read %d stripe bytes, full scan %d — no byte-level skipping",
			narrow.StripeBytes, full.StripeBytes)
	}
}

// TestColumnarRawOverflow: lines ShredJSON rejects (non-canonical key
// order) must round-trip through the raw stripe.
func TestColumnarRawOverflow(t *testing.T) {
	s := openSmall(t)

	recs := make([]*session.Record, 6)
	lines := make([][]byte, 6)
	seqs := make([]uint64, 6)
	for i := range recs {
		recs[i] = mkRecord(0, i)
		if i%2 == 1 {
			// Valid JSON for the same record, but not the canonical key
			// order — ShredJSON rejects it, the raw stripe carries it.
			lines[i] = []byte(fmt.Sprintf(`{"start":%q,"id":%d,"end":%q,"hp":"hp-1","client_ip":%q,"client_port":%d,"proto":%q}`,
				recs[i].Start.Format(time.RFC3339Nano), recs[i].ID,
				recs[i].End.Format(time.RFC3339Nano), recs[i].ClientIP,
				recs[i].ClientPort, recs[i].Protocol))
		} else {
			lines[i] = marshal(t, recs[i])
		}
		seqs[i] = uint64(i)
	}
	meta, err := s.writeSegment(segFileName(0), recs, lines, seqs)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.man.Segments = append(s.man.Segments, meta)
	s.man.NextSeq = 6
	s.mu.Unlock()

	got := drainStream(t, s.Stream())
	if len(got) != len(recs) {
		t.Fatalf("streamed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		want := *recs[i]
		want.Logins, want.Commands, want.Downloads = nil, nil, nil
		want.StateChanged = false
		if i%2 == 0 {
			want = *recs[i]
		}
		if !reflect.DeepEqual(got[i], &want) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], &want)
		}
	}
	// And a predicate scan must still see the raw rows (they are
	// unknown to the prefilter, exact in the cursor's re-check).
	res, err := s.RunQuery(&Query{Where: Cmp(FieldProto, CmpEq, StringValue(session.ProtoSSH))})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	n := 0
	for res.Next() {
		n++
	}
	want := 0
	for _, r := range recs {
		if r.Protocol == session.ProtoSSH {
			want++
		}
	}
	if n != want {
		t.Fatalf("predicate over mixed shredded/raw rows: got %d, want %d", n, want)
	}
}

// TestScanPoolBalanced: every scan path — full scans, LIMIT early
// exits, mid-stream Close — must return its pooled block scratch.
func TestScanPoolBalanced(t *testing.T) {
	for _, arm := range []string{"v2", "v3"} {
		t.Run(arm, func(t *testing.T) {
			recs := make([]*session.Record, 0, 800)
			for i := 0; i < 800; i++ {
				recs = append(recs, mkRecord(i%2, i))
			}
			s, _ := openArm(t, arm)
			sealAll(t, s, recs)

			g0, p0 := poolCounters()

			// Full scan to exhaustion, no explicit Close.
			res, err := s.RunQuery(&Query{})
			if err != nil {
				t.Fatal(err)
			}
			for res.Next() {
			}
			res.Close()

			// LIMIT early exit: the cursor must close itself at the limit.
			res, err = s.RunQuery(&Query{Limit: 3})
			if err != nil {
				t.Fatal(err)
			}
			for res.Next() {
			}

			// Mid-stream abandon with explicit Close.
			res, err = s.RunQuery(&Query{})
			if err != nil {
				t.Fatal(err)
			}
			res.Next()
			res.Close()

			g1, p1 := poolCounters()
			if gets, puts := g1-g0, p1-p0; gets != puts {
				t.Fatalf("pool imbalance: %d gets, %d puts", gets, puts)
			} else if gets == 0 {
				t.Fatal("no pool traffic recorded; counters not wired")
			}
		})
	}
}
