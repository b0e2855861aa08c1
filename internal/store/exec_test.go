package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"honeynet/internal/session"
)

// The parallel part executor's contract: an aggregate's rows — float
// sums to the bit — and its counted plan statistics, and a fleet
// stream's record sequence, do not depend on GOMAXPROCS; and a corrupt
// part fails the statement with the first failing part's error, never a
// panic, a leak or a short result.

// mixShapes are the ten statements of the query_mix workload as
// structured queries (the DSL's ORDER BY on an aggregate is the query
// layer's sort; the store returns groups sorted by key already).
func mixShapes(ip string) []*Query {
	mdrfckr := regexp.MustCompile("mdrfckr")
	return []*Query{
		{GroupBy: []Field{FieldMonth}, Aggs: []AggSpec{{Op: AggCount}}},
		{GroupBy: []Field{FieldMonth, FieldKind}, Aggs: []AggSpec{{Op: AggCount}}},
		{GroupBy: []Field{FieldProto}, Aggs: []AggSpec{{Op: AggCount}}},
		{Where: And(Cmp(FieldLoginOK, CmpEq, BoolValue(true)), Cmp(FieldStateChanged, CmpEq, BoolValue(false))),
			Aggs: []AggSpec{{Op: AggCount}}},
		{Where: Cmp(FieldUser, CmpEq, StringValue("root")),
			Aggs: []AggSpec{{Op: AggCount}, {Op: AggCountDistinct, Field: FieldIP}}},
		{Where: Match(FieldCmd, mdrfckr, false),
			Aggs: []AggSpec{{Op: AggCount}, {Op: AggCountDistinct, Field: FieldIP}}},
		{Where: Match(FieldCmd, mdrfckr, false), GroupBy: []Field{FieldMonth}, Aggs: []AggSpec{{Op: AggCount}}},
		{Where: Cmp(FieldIP, CmpEq, StringValue(ip)),
			Select: []Field{FieldStart, FieldUser, FieldCommands, FieldDownloads}, Limit: 20},
		{Where: Cmp(FieldDownloads, CmpGt, IntValue(0)), GroupBy: []Field{FieldMonth},
			Aggs: []AggSpec{{Op: AggSum, Field: FieldDownloads}, {Op: AggCountDistinct, Field: FieldIP}}},
		{Where: Cmp(FieldLoginOK, CmpEq, BoolValue(true)),
			Aggs: []AggSpec{{Op: AggAvg, Field: FieldDuration}, {Op: AggMax, Field: FieldDuration}}},
	}
}

// genAggQuery draws a random aggregate statement over a genZonePred
// predicate: group keys the metadata can split on and ones it cannot,
// and aggregates of every kind — float sums included.
func genAggQuery(rng *rand.Rand) *Query {
	specs := []AggSpec{
		{Op: AggCount},
		{Op: AggCount, Field: FieldUser},
		{Op: AggCountDistinct, Field: FieldIP},
		{Op: AggCountDistinct, Field: FieldUser},
		{Op: AggSum, Field: FieldDuration},
		{Op: AggAvg, Field: FieldDuration},
		{Op: AggSum, Field: FieldCommands},
		{Op: AggMin, Field: FieldStart},
		{Op: AggMax, Field: FieldDuration},
	}
	keys := []Field{FieldMonth, FieldKind, FieldProto, FieldHoneypot, FieldLoginOK}
	q := &Query{Where: genZonePred(rng, 3)}
	if rng.Intn(5) == 0 {
		q.Where = nil
	}
	for _, f := range keys {
		if rng.Intn(4) == 0 {
			q.GroupBy = append(q.GroupBy, f)
		}
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		q.Aggs = append(q.Aggs, specs[rng.Intn(len(specs))])
	}
	return q
}

// procRecs are zoneRecs with start-dependent fractional durations, so
// a float sum's value depends on the order its terms are added in.
func procRecs(from, n int) []*session.Record {
	recs := zoneRecs(from, n)
	for i, r := range recs {
		r.End = r.Start.Add(time.Duration((from+i)*7919%100003) * 37 * time.Microsecond)
		r.HoneypotID = fmt.Sprintf("hp-%d", (from+i)%5)
	}
	return recs
}

// buildFleet seals per-node slices of procRecs under a fleet directory
// — seals slices at a time, so a month holds several segments — and
// opens it read-only.
func buildFleet(t *testing.T, dir string, nodes []string, perNode, seals int) *Fleet {
	t.Helper()
	for ni, node := range nodes {
		recs := procRecs(ni*perNode, perNode)
		step := perNode / seals
		for i := 0; i < perNode; i += step {
			sealInto(t, ShardDir(dir, node), recs[i:min(i+step, perNode)])
		}
	}
	if err := WriteFleetMarker(dir); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFleet(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// openWithTail seals procRecs in slices and leaves more unsealed in
// the open store's tail.
func openWithTail(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{BlockBytes: 2048, SealBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	recs := procRecs(0, 900)
	for i := 0; i < 600; i += 200 {
		sealAll(t, s, recs[i:i+200])
	}
	for _, r := range recs[600:] {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// valueBits renders a value exactly: kind, then floats by their bits.
func valueBits(v Value) string {
	if v.Kind == ValFloat {
		return fmt.Sprintf("%d:%016x", v.Kind, math.Float64bits(v.Float))
	}
	return fmt.Sprintf("%d:%s:%d", v.Kind, v.String(), v.Time.UnixNano())
}

// runExact runs q and renders its output and plan statistics exactly.
func runExact(t *testing.T, r Reader, q *Query) (string, PlanStats) {
	t.Helper()
	res, err := r.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var b strings.Builder
	if res.Aggregated() {
		for _, g := range res.Groups() {
			for _, v := range append(append([]Value(nil), g.Keys...), g.Aggs...) {
				b.WriteString(valueBits(v) + " ")
			}
			b.WriteString("\n")
		}
	} else {
		for res.Next() {
			line, err := session.AppendJSON(nil, res.Record())
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return b.String(), res.Stats()
}

// withProcs runs fn at GOMAXPROCS n.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestAggregateProcsInvariance: the ten query_mix shapes and random
// aggregate trees return the same rows, floats to the bit, and the same
// plan statistics at GOMAXPROCS 1, 2 and 8, over a mixed-format store,
// a three-shard fleet and a store with an unsealed tail; a fleet
// stream yields the same records at 1 and 8.
func TestAggregateProcsInvariance(t *testing.T) {
	zoned, _ := openZoned(t)
	fleet := buildFleet(t, t.TempDir(), []string{"a", "b", "c"}, 600, 3)
	inputs := []struct {
		name string
		r    Reader
	}{
		{"zoned", zoned},
		{"fleet", fleet},
		{"tail", openWithTail(t)},
	}
	rng := rand.New(rand.NewSource(29))
	queries := mixShapes("203.0.0.7")
	for i := 0; i < 60; i++ {
		queries = append(queries, genAggQuery(rng))
	}
	scanned := 0
	for _, in := range inputs {
		for qi, q := range queries {
			var want string
			var wantStats PlanStats
			withProcs(1, func() { want, wantStats = runExact(t, in.r, q) })
			if wantStats.ScannedSegments > 1 {
				scanned++
			}
			for _, procs := range []int{2, 8} {
				withProcs(procs, func() {
					got, stats := runExact(t, in.r, q)
					if got != want {
						t.Fatalf("%s query %d at GOMAXPROCS %d: rows differ\n got %s\nwant %s", in.name, qi, procs, got, want)
					}
					if !reflect.DeepEqual(stats, wantStats) {
						t.Fatalf("%s query %d at GOMAXPROCS %d: stats differ\n got %+v\nwant %+v", in.name, qi, procs, stats, wantStats)
					}
				})
			}
		}
	}
	if scanned < len(inputs)*len(queries)/4 {
		t.Fatalf("only %d statements scanned more than one segment: the executor went untested", scanned)
	}

	var want, got []byte
	withProcs(1, func() { want = streamBytes(t, fleet) })
	withProcs(8, func() { got = streamBytes(t, fleet) })
	if string(got) != string(want) {
		t.Fatal("fleet stream differs between GOMAXPROCS 1 and 8")
	}
	if len(want) == 0 {
		t.Fatal("fleet stream is empty")
	}
}

// streamBytes drains a fleet stream into its records' canonical JSON.
func streamBytes(t *testing.T, f *Fleet) []byte {
	t.Helper()
	var out []byte
	for _, r := range drainStream(t, f.Stream()) {
		var err error
		if out, err = session.AppendJSON(out, r); err != nil {
			t.Fatal(err)
		}
		out = append(out, '\n')
	}
	return out
}

// flipStripeBit flips one bit in the meta stripe of block bi of seg —
// a stripe every scan of the block reads — and returns the error text
// that must name it.
func flipStripeBit(t *testing.T, s *Store, seg *segmentMeta, bi int) string {
	t.Helper()
	cs, err := s.openColSeg(seg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var d colDir
	err = cs.readDir(bi, &d)
	cs.close()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.dir, seg.File)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[d.off[stripeMeta]+int64(d.clen[stripeMeta]/2)] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s: block %d:", seg.File, bi)
}

// TestCorruptStripeUnderParallelScan: with a bit flipped in a sealed
// v3 stripe of two segments of one shard, the aggregate, row-query and
// fleet-stream paths each fail with a CorruptError that names the first
// corrupt part in part order — its segment file and block index — at
// every GOMAXPROCS, and leave no goroutine running and no pooled
// scratch out.
func TestCorruptStripeUnderParallelScan(t *testing.T) {
	fleet := buildFleet(t, t.TempDir(), []string{"a", "b", "c"}, 600, 2)
	sh := fleet.Shards()[1]
	man, _ := sh.Store.snapshot()
	// Two segments of different months: the later one is the larger,
	// so largest-first dispatch starts it first.
	var early, late *segmentMeta
	for _, seg := range man.Segments {
		switch {
		case early == nil:
			early = seg
		case seg.month().After(early.month()) && (late == nil || seg.Records > late.Records):
			late = seg
		}
	}
	if early.Codec != codecV3 || late == nil || len(early.Blocks) < 2 {
		t.Fatal("fixture: want two v3 segments of different months, the first with several blocks")
	}
	want := flipStripeBit(t, sh.Store, early, 1)
	flipStripeBit(t, sh.Store, late, 0)

	gets0, puts0 := PoolCounters()
	g0 := runtime.NumGoroutine()
	check := func(path string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: no error over a corrupt stripe", path)
		}
		if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "shard b") {
			t.Fatalf("%s: error %q does not name shard b and %q", path, err, want)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.File != early.File || ce.Block != 1 {
			t.Fatalf("%s: error %q is not a CorruptError for %s block 1", path, err, early.File)
		}
	}
	agg := &Query{Aggs: []AggSpec{{Op: AggCount}, {Op: AggCountDistinct, Field: FieldIP}}}
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			for rep := 0; rep < 5; rep++ {
				_, err := fleet.RunQuery(agg)
				check("aggregate", err)

				res, err := fleet.RunQuery(&Query{Select: []Field{FieldIP}})
				if err != nil {
					t.Fatal(err)
				}
				for res.Next() {
				}
				check("row query", res.Err())
				res.Close()

				c := fleet.Stream()
				for c.Next() {
				}
				check("stream", c.Err())
				c.Close()
			}
		})
	}
	if gets, puts := PoolCounters(); gets-gets0 != puts-puts0 || gets == gets0 {
		t.Fatalf("pool: %d gets, %d puts", gets-gets0, puts-puts0)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > g0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > g0 {
		t.Fatalf("%d goroutines left running (had %d)", n, g0)
	}
}

// BenchmarkFleetAggregate: the four scanning query_mix shapes over a
// sealed two-shard fleet. Run it with -cpu 1,2 to see the part
// executor's scaling.
func BenchmarkFleetAggregate(b *testing.B) {
	const perShard = 24000
	dir := b.TempDir()
	for n, node := range []string{"a", "b"} {
		s, err := Open(ShardDir(dir, node), Options{SealBytes: -1, SyncEvery: -1})
		if err != nil {
			b.Fatal(err)
		}
		for i := n * perShard; i < (n+1)*perShard; i++ {
			r := benchRecord(i)
			if i%5 == 0 {
				r.Commands = append(r.Commands, session.Command{Raw: `echo "ssh-rsa AAAA mdrfckr">>.ssh/authorized_keys`, Known: true})
			}
			if i%7 == 0 {
				r.Downloads = []session.Download{{URI: fmt.Sprintf("http://malw.example/%d/bot.sh", i%977), Size: 1024}}
			}
			if err := s.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Seal(); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	f, err := OpenFleet(dir, Options{ReadOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	shapes := mixShapes("")
	for _, c := range []struct {
		name string
		q    *Query
	}{
		{"projection", shapes[3]},
		{"distinct", shapes[4]},
		{"regex_scan", shapes[5]},
		{"groupby", shapes[8]},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := f.RunQuery(c.q)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Groups()) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}
