package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"honeynet/internal/session"
)

// An aggregate folds values, not records: a matched row's group keys
// and aggregate inputs come from its block where the block holds them,
// and from one scratch record where it does not. The fold must answer
// what folding every matched row as a whole decoded record answers —
// rows, floats to the bit, plan statistics — and what a plain Go loop
// over the streamed records computes; and it must cost no allocation
// per row.

// recordAggregate runs an aggregate statement a record per row, the
// reference the fold is held to: every matched row of every part
// decoded into an arena record by Cursor.Next and folded whole by
// addRecord, the part tables merged in part order. It returns the rows
// and the plan statistics RunQuery reports for them.
func recordAggregate(t *testing.T, r Reader, q *Query) ([]GroupRow, PlanStats) {
	t.Helper()
	p, err := lower(q)
	if err != nil {
		t.Fatal(err)
	}
	total := p.newStats()
	tab := newAggTable(q.GroupBy, q.Aggs)
	if p.empty {
		return tab.finalize(), *total
	}
	stores := []*Store{}
	switch r := r.(type) {
	case *Store:
		stores = append(stores, r)
	case *Fleet:
		stores = r.stores()
	}
	stats := make([]*PlanStats, len(stores))
	for i := range stats {
		stats[i] = p.newStats()
	}
	meta := tab
	if p.splits == nil {
		meta = nil
	}
	jobs := planJobs(p, stores, meta, stats)
	if meta != nil && p.ip == "" {
		for _, st := range stats {
			switch {
			case st.ScannedSegments == 0:
				st.Mode = "metadata"
			case st.MetaSegments > 0:
				st.Mode = "hybrid"
			}
		}
	}
	tabs := make([]*aggTable, len(jobs))
	jst := make([]PlanStats, len(jobs))
	if _, err := runParts(p, jobs, jst, func(j int, c *Cursor) error {
		tabs[j] = newAggTable(q.GroupBy, q.Aggs)
		for c.Next() {
			tabs[j].addRecord(c.Record())
		}
		return c.Err()
	}); err != nil {
		t.Fatal(err)
	}
	for j, pt := range tabs {
		tab.merge(pt)
		stats[jobs[j].shard].add(&jst[j])
	}
	if _, ok := r.(*Store); ok {
		return tab.finalize(), *stats[0]
	}
	for i, st := range stats {
		total.add(st)
		if i > 0 && st.Mode != total.Mode {
			total.Mode = "hybrid"
		} else {
			total.Mode = st.Mode
		}
	}
	return tab.finalize(), *total
}

// loopAggregate is the statement as a plain Go loop over records:
// filter, group by the rendered keys, accumulate, sort.
func loopAggregate(recs []*session.Record, q *Query) []GroupRow {
	filter, err := CompilePred(q.Where)
	if err != nil {
		panic(err)
	}
	type acc struct {
		n        int64
		sum      float64
		min, max Value
		set      map[string]bool
	}
	type group struct {
		keys []Value
		accs []acc
	}
	groups := map[string]*group{}
	for _, r := range recs {
		if filter != nil && !filter(r) {
			continue
		}
		var keys []Value
		var key strings.Builder
		for _, f := range q.GroupBy {
			v := fieldValue(f, r)
			keys = append(keys, v)
			key.WriteString(valueBits(v) + "|")
		}
		g := groups[key.String()]
		if g == nil {
			g = &group{keys: keys, accs: make([]acc, len(q.Aggs))}
			for i := range g.accs {
				g.accs[i].set = map[string]bool{}
			}
			groups[key.String()] = g
		}
		for i, a := range q.Aggs {
			ac, v := &g.accs[i], fieldValue(a.Field, r)
			switch a.Op {
			case AggCount:
				if a.Field == FieldNone || v.Kind != ValNull {
					ac.n++
				}
			case AggCountDistinct:
				if !a.Field.Multi() {
					if v.Kind != ValNull {
						ac.set[valueBits(v)] = true
					}
					break
				}
				var elems []string
				switch a.Field {
				case FieldUser, FieldPassword:
					for _, l := range r.Logins {
						elems = append(elems, map[Field]string{FieldUser: l.Username, FieldPassword: l.Password}[a.Field])
					}
				case FieldURI:
					for _, d := range r.Downloads {
						elems = append(elems, d.URI)
					}
				case FieldHash:
					elems = r.DroppedHashes
				}
				for _, e := range elems {
					ac.set[e] = true
				}
			case AggSum, AggAvg:
				ac.n++
				if v.Kind == ValInt {
					ac.sum += float64(v.Int)
				} else {
					ac.sum += v.Float
				}
			case AggMin, AggMax:
				if v.Kind == ValNull {
					break
				}
				if ac.min.Kind == ValNull || v.less(ac.min) {
					ac.min = v
				}
				if ac.max.Kind == ValNull || ac.max.less(v) {
					ac.max = v
				}
			}
		}
	}
	var out []GroupRow
	for _, g := range groups {
		row := GroupRow{Keys: g.keys}
		for i, a := range q.Aggs {
			ac := &g.accs[i]
			var v Value
			switch a.Op {
			case AggCount:
				v = IntValue(ac.n)
			case AggCountDistinct:
				v = IntValue(int64(len(ac.set)))
			case AggSum:
				v = FloatValue(ac.sum)
				if a.Field.Type() == ValInt {
					v = IntValue(int64(ac.sum))
				}
			case AggAvg:
				if ac.n > 0 {
					v = FloatValue(ac.sum / float64(ac.n))
				}
			case AggMin:
				v = ac.min
			case AggMax:
				v = ac.max
			}
			row.Aggs = append(row.Aggs, v)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		for k, a := range out[i].Keys {
			if b := out[j].Keys[k]; !a.equal(b) {
				return a.less(b)
			}
		}
		return false
	})
	return out
}

// rowsBits renders group rows exactly, floats by their bits.
func rowsBits(rows []GroupRow) string {
	var b strings.Builder
	for _, g := range rows {
		for _, v := range append(append([]Value(nil), g.Keys...), g.Aggs...) {
			b.WriteString(valueBits(v) + " ")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// sameAsLoop compares a statement's rows with the Go loop's. A float
// sum or average may differ in its last bits: the store sums each part
// and then adds the part sums in (shard, part) order, which a loop over
// the stream does not reproduce; the record path pins those bits.
func sameAsLoop(got, want []GroupRow, q *Query) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, the loop has %d", len(got), len(want))
	}
	for i := range got {
		if a, b := rowsBits(got[i:i+1]), rowsBits(want[i:i+1]); a == b {
			continue
		}
		if rowsBits([]GroupRow{{Keys: got[i].Keys}}) != rowsBits([]GroupRow{{Keys: want[i].Keys}}) {
			return fmt.Errorf("row %d keys differ:\n got %s\nwant %s", i, rowsBits(got[i:i+1]), rowsBits(want[i:i+1]))
		}
		for k, a := range q.Aggs {
			x, y := got[i].Aggs[k], want[i].Aggs[k]
			if valueBits(x) == valueBits(y) {
				continue
			}
			float := (a.Op == AggSum || a.Op == AggAvg) && a.Field.Type() == ValFloat
			if !float || x.Kind != ValFloat || math.Abs(x.Float-y.Float) > 1e-9*math.Max(1, math.Abs(y.Float)) {
				return fmt.Errorf("row %d %s(%s): got %s, the loop has %s", i, a.Op, a.Field.Name(), valueBits(x), valueBits(y))
			}
		}
	}
	return nil
}

// foldStatements lists aggregate statements over every field: each
// single-valued field as a group key, and each field under every
// aggregate that takes it, beside count(*), with a random group key
// and a predicate that is absent, one zones decide, or one only the
// column kernels decide.
func foldStatements(rng *rand.Rand) []*Query {
	var fields, keys []Field
	for f := range fieldInfos {
		fields = append(fields, f)
		if !f.Multi() {
			keys = append(keys, f)
		}
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i] < fields[j] })
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	where := func() *Pred {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return genZonePred(rng, 3)
		}
		leaves := fragLeaves()
		return leaves[rng.Intn(len(leaves))]
	}
	var out []*Query
	for _, f := range keys {
		out = append(out, &Query{Where: where(), GroupBy: []Field{f}, Aggs: []AggSpec{{Op: AggCount}}})
	}
	for _, op := range []AggOp{AggCount, AggCountDistinct, AggSum, AggAvg, AggMin, AggMax} {
		for _, f := range fields {
			q := &Query{Where: where(), Aggs: []AggSpec{{Op: op, Field: f}, {Op: AggCount}}}
			if rng.Intn(2) == 0 {
				q.GroupBy = []Field{keys[rng.Intn(len(keys))]}
			}
			if _, err := q.validate(); err == nil {
				out = append(out, q)
			}
		}
	}
	return out
}

// openOddMixed is openOdd's store with more sealed rows after the odd
// segment, one of them with a client IP that is not plain ASCII, so
// its block's IPs must be decoded.
func openOddMixed(t *testing.T) *Store {
	t.Helper()
	s, _ := openOdd(t)
	recs := zoneRecs(1, 300)
	recs[40].ClientIP = "203.0.0.<ü>"
	sealAll(t, s, recs)
	return s
}

// TestAggregateFoldMatchesRecords: every aggregate statement over every
// field returns what the record-at-a-time fold returns — rows with
// floats to the bit, and the same plan statistics, ScannedRecords
// included, with at most as many stripes read — and what a Go loop
// over the streamed records computes, over a zoned store, a three-shard
// fleet, a store with an unsealed tail and a store with odd fragments
// and raw-overflow rows, at GOMAXPROCS 1, 2 and 8.
func TestAggregateFoldMatchesRecords(t *testing.T) {
	zoned, _ := openZoned(t)
	inputs := []struct {
		name string
		r    Reader
	}{
		{"zoned", zoned},
		{"fleet", buildFleet(t, t.TempDir(), []string{"a", "b", "c"}, 600, 3)},
		{"tail", openWithTail(t)},
		{"odd", openOddMixed(t)},
	}
	queries := foldStatements(rand.New(rand.NewSource(31)))
	folded := 0
	for _, in := range inputs {
		recs := drainStream(t, in.r.Stream())
		for qi, q := range queries {
			want := loopAggregate(recs, q)
			var ref []GroupRow
			var refStats PlanStats
			withProcs(1, func() { ref, refStats = recordAggregate(t, in.r, q) })
			for _, procs := range []int{1, 2, 8} {
				withProcs(procs, func() {
					res, err := in.r.RunQuery(q)
					if err != nil {
						t.Fatal(err)
					}
					got, stats := res.Groups(), res.Stats()
					if rowsBits(got) != rowsBits(ref) {
						t.Fatalf("%s query %d at GOMAXPROCS %d: rows differ from the record fold\n got %s\nwant %s", in.name, qi, procs, rowsBits(got), rowsBits(ref))
					}
					if err := sameAsLoop(got, want, q); err != nil {
						t.Fatalf("%s query %d at GOMAXPROCS %d: %v", in.name, qi, procs, err)
					}
					if stats.StripesRead > refStats.StripesRead || stats.StripeBytes > refStats.StripeBytes {
						t.Fatalf("%s query %d at GOMAXPROCS %d: %d stripes (%d bytes) read, the record fold read %d (%d)",
							in.name, qi, procs, stats.StripesRead, stats.StripeBytes, refStats.StripesRead, refStats.StripeBytes)
					}
					if stats.StripesRead < refStats.StripesRead {
						folded++
					}
					stats.StripesRead, stats.StripeBytes = refStats.StripesRead, refStats.StripeBytes
					if !reflect.DeepEqual(stats, refStats) {
						t.Fatalf("%s query %d at GOMAXPROCS %d: stats differ\n got %+v\nwant %+v", in.name, qi, procs, stats, refStats)
					}
				})
			}
		}
	}
	if folded == 0 {
		t.Fatal("no statement read fewer stripes than the record fold: nothing folded from a block")
	}
}

// TestAggregateAllocatesPerBlockNotPerRow: an aggregate whose group keys
// and inputs the block holds, or one narrow decode yields, allocates
// per block and per part — never a record, string or slice per matched
// row.
func TestAggregateAllocatesPerBlockNotPerRow(t *testing.T) {
	dir := t.TempDir()
	const perShard = 6000
	for n, node := range []string{"a", "b"} {
		s, err := Open(ShardDir(dir, node), Options{tuning: manual})
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]*session.Record, perShard)
		for i := range recs {
			recs[i] = mkRecord(0, n*perShard+i)
		}
		sealAll(t, s, recs)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteFleetMarker(dir); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFleet(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	q := &Query{
		Where: Cmp(FieldLoginOK, CmpEq, BoolValue(true)),
		Aggs:  []AggSpec{{Op: AggCount}, {Op: AggSum, Field: FieldDownloads}, {Op: AggAvg, Field: FieldDuration}},
	}
	run := func() int64 {
		res, err := f.RunQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if g := res.Groups(); len(g) == 1 && g[0].Aggs[1].Int > 0 {
			return g[0].Aggs[0].Int
		}
		t.Fatalf("unexpected result %+v", res.Groups())
		return 0
	}
	matched := run()
	// The least any of a dozen runs allocates: a pooled block scratch
	// the runtime dropped between runs — at a GC, or at random under
	// the race detector — is a per-worker cost, not a row's.
	least := uint64(math.MaxUint64)
	for i := 0; i < 12; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	perRow := float64(least) / float64(matched)
	t.Logf("%d matched rows: %.1f bytes allocated per row", matched, perRow)
	if perRow > 32 {
		t.Fatalf("%.1f bytes allocated per matched row; want at most 32", perRow)
	}
}

// TestCountDistinctExactAcrossQuadPacking: a count(distinct) keeps a
// canonical dotted quad packed and every other string as a key, so the
// count must come out exact on a mix of quads and spellings that are
// almost quads — leading zeros, three parts, a part over 255, IPv6, the
// empty string — each repeated across the parts of two shards, in plain
// client_ip stripes and in stripes an escaped address keeps unplain,
// and as user names (a multi-valued field). Ungrouped and by month, at
// GOMAXPROCS 1, 2 and 8, it must equal a map over the decoded records.
func TestCountDistinctExactAcrossQuadPacking(t *testing.T) {
	spellings := []string{
		"1.2.3.4", "10.0.0.1", "0.0.0.0", "255.255.255.255", "203.0.113.5",
		"01.2.3.4", "1.2.3.04", "1.2.3", "256.1.1.1", "::1", "",
		"1.2.3.4.5", "1..3.4", "1.2.3.4 ", "1.2.3.4&",
	}
	dir := t.TempDir()
	for n, node := range []string{"a", "b"} {
		recs := procRecs(n*900, 900)
		for i, r := range recs {
			r.ClientIP = spellings[(i*7+n)%len(spellings)]
			if r.ClientIP == "1.2.3.4&" && i%4 != 0 {
				r.ClientIP = "1.2.3.4" // most blocks keep a plain stripe
			}
			for k := range r.Logins {
				r.Logins[k].Username = spellings[(i+k)%len(spellings)]
			}
		}
		for i := 0; i < len(recs); i += 300 {
			sealInto(t, ShardDir(dir, node), recs[i:i+300])
		}
	}
	if err := WriteFleetMarker(dir); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFleet(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs := drainStream(t, f.Stream())
	distinct := []AggSpec{{Op: AggCount}, {Op: AggCountDistinct, Field: FieldIP}, {Op: AggCountDistinct, Field: FieldUser}}
	for qi, q := range []*Query{
		{Aggs: distinct},
		{GroupBy: []Field{FieldMonth}, Aggs: distinct},
		{Where: Cmp(FieldLoginOK, CmpEq, BoolValue(true)), GroupBy: []Field{FieldMonth}, Aggs: distinct},
	} {
		want := loopAggregate(recs, q)
		if qi == 0 && (len(want) != 1 || want[0].Aggs[1].Int != int64(len(spellings))) {
			t.Fatalf("the records hold %s, want every one of %d spellings", rowsBits(want), len(spellings))
		}
		for _, procs := range []int{1, 2, 8} {
			withProcs(procs, func() {
				res, err := f.RunQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Groups(); rowsBits(got) != rowsBits(want) {
					t.Fatalf("query %d at GOMAXPROCS %d:\n got %s\nwant %s", qi, procs, rowsBits(got), rowsBits(want))
				}
			})
		}
	}
}

// TestQuadSetExact: parseQuad accepts exactly the strings net/netip
// reads as an IPv4 address that prints back as itself, packed as its
// four bytes, and a set fed many repeats of many quads — sorted in
// batches as it grows — counts each once.
func TestQuadSetExact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var acc aggAcc
	want := map[uint32]bool{}
	for i := 0; i < 200000; i++ {
		b := make([]byte, rng.Intn(16))
		for k := range b {
			b[k] = "0123456789.."[rng.Intn(12)]
		}
		if i%2 == 0 {
			b = fmt.Appendf(b[:0], "%d.%d.%d.%d", rng.Intn(300), rng.Intn(3), rng.Intn(3), rng.Intn(260))
		}
		q, ok := parseQuad(b)
		a, err := netip.ParseAddr(string(b))
		if canon := err == nil && a.Is4() && a.String() == string(b); ok != canon || ok && q != binary.BigEndian.Uint32(a.AsSlice()) {
			t.Fatalf("parseQuad(%q) = %08x, %v; netip %v, %v", b, q, ok, a, err)
		}
		if ok {
			acc.addQuad(q)
			want[q] = true
		}
	}
	if got := acc.distinct(); got != len(want) || len(want) < 1000 {
		t.Fatalf("%d distinct quads counted, %d added", got, len(want))
	}
}
