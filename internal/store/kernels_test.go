package store

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"testing"

	"honeynet/internal/session"
)

// openOdd opens a small store holding one sealed segment of four odd
// rows — non-canonical but shreddable logins (row 0) and command
// (row 1) fragments, and a raw-overflow line (row 2) — and returns it
// with that segment.
func openOdd(t *testing.T) (*Store, *segmentMeta) {
	t.Helper()
	s := openSmall(t)
	recs := make([]*session.Record, 4)
	lines := make([][]byte, 4)
	seqs := make([]uint64, 4)
	for i := range recs {
		r := mkRecord(0, i)
		r.Logins = []session.LoginAttempt{{Username: "root", Password: "x", Success: i%2 == 0}}
		r.Commands = []session.Command{{Raw: "echo mdrfckr", Known: true}}
		recs[i], lines[i], seqs[i] = r, marshal(t, r), uint64(i)
	}
	odd := func(i int, old, new string) {
		if !bytes.Contains(lines[i], []byte(old)) {
			t.Fatalf("line %d lacks %q: %s", i, old, lines[i])
		}
		lines[i] = bytes.Replace(lines[i], []byte(old), []byte(new), 1)
		var cols session.Columns
		if !session.ShredJSON(lines[i], &cols) {
			t.Fatalf("line %d does not shred: %s", i, lines[i])
		}
	}
	odd(0, `{"user":"root",`, `{"user": "root",`)
	odd(1, `"raw":"echo mdrfckr"`, `"raw":"echo \u006ddrfckr"`)
	id := fmt.Sprintf(`"id":%d,`, recs[2].ID)
	lines[2] = append(bytes.Replace(lines[2][:len(lines[2])-1], []byte(id), nil, 1), `,`+id[:len(id)-1]+`}`...)
	if session.ShredJSON(lines[2], new(session.Columns)) {
		t.Fatalf("line 2 still shreds: %s", lines[2])
	}
	meta, err := s.writeSegment(segFileName(0), recs, lines, seqs)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.man.Segments = append(s.man.Segments, meta)
	s.man.NextSeq = uint64(len(recs))
	s.man.NextSeg = 1
	s.mu.Unlock()
	return s, meta
}

// TestOddFragmentsAnsweredRight seals lines the shredder accepts but
// that are not what the encoder writes. Whitespace inside a login
// element is one the decoder's fast grammar rejects: the login kernels
// must leave that row unknown, so the row Filter decides it from the
// stdlib decode. A \u006d escape spelling the m of mdrfckr is one the
// fast grammar accepts and unescapes, as the stdlib does: the command
// kernel decides that row exactly, and true. Either way every statement
// answers what the Filter says of the fully decoded records. A
// raw-overflow row (keys out of order) is in no field stripe at all:
// every fragment leaf leaves it unknown, never reads it as absent.
// login_ok reads no fragment: the kind byte every row's sidecar holds
// decides all four rows, the raw-overflow one too, as it does for kind.
func TestOddFragmentsAnsweredRight(t *testing.T) {
	s, meta := openOdd(t)
	cs, err := s.openColSeg(meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.close()
	all := runRows(t, s, &Query{})
	for _, c := range []struct {
		pred    *Pred
		unknown []int // rows the bitmap must leave to the Filter
	}{
		{Cmp(FieldUser, CmpEq, StringValue("root")), []int{0, 2}},
		{Cmp(FieldLoginOK, CmpEq, BoolValue(true)), nil},
		{Cmp(FieldLogins, CmpEq, IntValue(0)), []int{0, 2}},
		{Cmp(FieldCommands, CmpEq, IntValue(0)), []int{2}},
		{Match(FieldCmd, regexp.MustCompile("mdrfckr"), false), []int{2}},
		{Match(FieldCmd, regexp.MustCompile("mdrfckr"), true), []int{2}},
	} {
		p, err := lower(&Query{Where: c.pred})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := blockBits(t, cs, 0, p.prog)
		want := 0
		for i, r := range all {
			unknown := bmHas(hi, i) && !bmHas(lo, i)
			if unknown != slices.Contains(c.unknown, i) {
				t.Errorf("%s row %d: unknown = %v", c.pred.Field.Name(), i, unknown)
			}
			if p.filter(r) {
				want++
			}
		}
		for _, q := range []*Query{
			{Where: c.pred},
			{Where: c.pred, Aggs: []AggSpec{{Op: AggCount}, {Op: AggCountDistinct, Field: FieldIP}}},
		} {
			got := len(runRows(t, s, q))
			if len(q.Aggs) > 0 {
				got = 0 // no group at all when nothing matches
				for _, g := range runIDsOrGroups(t, s, q).([]GroupRow) {
					got += int(g.Aggs[0].Int)
				}
			}
			if got != want {
				t.Errorf("%s (aggregate %v): %d rows, the Filter selects %d", c.pred.Field.Name(), len(q.Aggs) > 0, got, want)
			}
		}
	}
}

// FuzzFragmentKernels puts arbitrary bytes where a logins, cmds, dls,
// state_changed, client_ip or end fragment goes and holds every
// fragment leaf to the truth: a row the bitmap says is definitely true
// must pass the Filter, and a row that passes must be possibly true,
// where the Filter runs on the record the cursor's own decode makes of
// the row — the columnar decode, or the reassembled line's when that
// bails. The row's sidecar is what the writer stores for that record:
// its kind byte and start nanoseconds. Every value an aggregate folds
// from the block — counts, flags, login_ok from the kind byte, end and
// duration from the end fragment, the client IP's bytes of a plain
// fragment — must equal fieldValue of that record, or its reader must
// report a bail. A row no decode accepts, or one whose line would not
// shred back into the same fragments, has no record to hold the
// verdict to, but the kernels and readers must still not panic on it.
func FuzzFragmentKernels(f *testing.F) {
	base := mkRecord(0, 3)
	base.Commands = append(base.Commands, session.Command{Raw: `echo "mdrfckr">>k`})
	base.TimedOut = true
	line, err := session.AppendJSON(nil, base)
	if err != nil {
		f.Fatal(err)
	}
	var cols session.Columns
	if !session.ShredJSON(line, &cols) {
		f.Fatal("base record does not shred")
	}
	targets := []int{session.ColLogins, session.ColCmds, session.ColDls, session.ColStateChanged, session.ColClientIP, session.ColEnd}
	for i, c := range targets {
		f.Add(uint8(i), append([]byte(nil), cols[c]...))
	}
	for _, seed := range []struct {
		col  uint8
		frag string
	}{
		{0, `[{"user": "root","pass":"x","ok":true}]`},
		{0, `[{"user":"root","pass":"😀","ok":false},{"user":"a","pass":"b","ok":true}]`},
		{0, `[]`},
		{0, `null`},
		{1, `[{"raw":"echo mdrfckr","known":true}]`},
		{1, `[{"raw":"wget x; sh","known":true},{"raw":"echo mdrfckr","known":false}]`},
		{1, `[{"raw":"a\u0000b","known":true}],"cmds":[]`},
		{2, `[{"uri":"http://x","size":1e3}]`},
		{2, `[{"uri":"u","src_ip":"1.2.3.4","hash":"h","size":-1},{"uri":"v"}]`},
		{3, `false`},
		{3, `tru`},
		{4, `"10.0.0.1"`},
		{4, `"a\u003cb"`},
		{4, `""`},
		{4, `"1.2.3.4`},
		{5, `"2021-05-01T00:05:36Z"`},
		{5, `"2021-05-01T00:05:36.000123Z"`},
		{5, `"2021-05-01T05:35:36+05:30"`},
		{5, `"2021-05-01T00:05:36\u005a"`},
		{5, `"10000-01-01T00:00:00Z"`},
		{5, `"2021-02-30T00:00:00Z"`},
	} {
		f.Add(seed.col, []byte(seed.frag))
	}
	var plans []*plan
	for _, pred := range fragLeaves() {
		p, err := lower(&Query{Where: pred})
		if err != nil {
			f.Fatal(err)
		}
		plans = append(plans, p)
	}
	f.Fuzz(func(t *testing.T, which uint8, frag []byte) {
		row := cols
		row[targets[int(which)%len(targets)]] = nil
		if len(frag) > 0 {
			row[targets[int(which)%len(targets)]] = frag
		}
		sc := &colScratch{}
		for c, b := range row {
			if b != nil {
				sc.cols[c] = colData{data: b, off: []uint32{0}, lens: []uint32{uint32(len(b))}}
			}
		}
		// A writer keeps a row in the field stripes only when its line
		// shreds, so a stored fragment is the one value of its key. A
		// fragment that carries another key too (`[],"Cmds":[]`) makes a
		// line that shreds otherwise or not at all: such a row is stored
		// whole in the raw stripe, and no kernel ever reads its fragments.
		line := session.AppendAssembled(nil, &row)
		var back session.Columns
		stored := session.ShredJSON(line, &back)
		for c := range back {
			stored = stored && bytes.Equal(back[c], row[c])
		}
		var rec session.Record
		var dec session.JSONDecoder
		decoded := stored && (dec.DecodeColumns(&row, &rec, session.FAllFields) ||
			dec.DecodeMasked(line, &rec, session.FAllFields) == nil)
		kind := base.Kind()
		if decoded {
			kind = rec.Kind()
		}
		sc.kinds, sc.tnanos = []byte{byte(kind)}, []int64{base.Start.UnixNano()}
		for i, p := range plans {
			var arena []uint64
			a := bmAlloc{arena: &arena}
			lo, hi := a.get(1), a.get(1)
			p.prog.root.eval(&vecEnv{sc: sc, rows: 1, tnOK: true}, &a, lo, hi)
			if !decoded {
				continue
			}
			truth := p.filter(&rec)
			if bmHas(lo, 0) && !truth || truth && !bmHas(hi, 0) {
				t.Fatalf("leaf %d over %q: lo %v hi %v, Filter %v", i, frag, bmHas(lo, 0), bmHas(hi, 0), truth)
			}
		}
		for _, f := range []Field{FieldLogins, FieldCommands, FieldDownloads, FieldLoginOK, FieldStateChanged, FieldTimedOut, FieldIP, FieldEnd, FieldDuration} {
			if f == FieldIP && !plainStrFrag(row[session.ColClientIP]) {
				continue // a block with such a fragment has its plain bit clear
			}
			var v foldVal
			if !sc.blockVal(f, 0, &v) || !decoded {
				continue
			}
			if got, want := valueBits(v.value()), valueBits(fieldValue(f, &rec)); got != want {
				t.Fatalf("%s over %q: block %s, record %s", f.Name(), frag, got, want)
			}
		}
	})
}

// TestSelectStarDecodesWhole: a statement that returns whole records
// has no narrower output mask, so a bitmap-decided block decodes every
// field all the same.
func TestSelectStarDecodesWhole(t *testing.T) {
	for _, q := range []*Query{
		{Where: Cmp(FieldUser, CmpEq, StringValue("root"))},
		{Where: Match(FieldCmd, regexp.MustCompile("wget"), false), Limit: 3},
	} {
		p, err := lower(q)
		if err != nil {
			t.Fatal(err)
		}
		if p.outMask != session.FAllFields || p.mask != session.FAllFields {
			t.Fatalf("SELECT * plan masks: out %b, whole %b", p.outMask, p.mask)
		}
	}
	p, err := lower(&Query{Where: Cmp(FieldUser, CmpEq, StringValue("root")), Aggs: []AggSpec{{Op: AggCountDistinct, Field: FieldIP}}})
	if err != nil {
		t.Fatal(err)
	}
	if p.outMask != session.FClientIP || p.mask != session.FClientIP|session.FLogins {
		t.Fatalf("count(distinct ip) WHERE user: out %b, whole %b", p.outMask, p.mask)
	}
}
