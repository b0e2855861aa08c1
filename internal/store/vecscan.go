package store

import (
	"bytes"
	"io"
	"math/bits"
	"regexp"
	"time"

	"honeynet/internal/classify"
	"honeynet/internal/session"
)

// The compiled predicate. A statement's predicate tree lowers once
// (plan, runquery.go) into vecNodes, and that one tree answers every
// pushdown question the store asks. Against a zone — the summary a
// segment's manifest entry, a bucket of its counts, and a v3 block
// directory all reduce to — tri gives the Kleene verdict for every
// record the zone covers at once: false prunes the segment or block
// unread, all-definite buckets answer a count(*) from metadata. Against
// a decoded v3 block, eval runs the leaves column-at-a-time into a
// selection bitmap pair (lo = definitely true, hi = possibly true):
// leaves the columns decide exactly set lo == hi, anything else (an
// opaque field, a raw-overflow row, a fragment the decoder's fast
// grammar rejects) widens to unknown. Rows with hi clear are skipped
// before any per-row decode. A row with lo set is a match: it
// materializes only the fields the statement returns — an aggregate
// folds those it can straight from the block (colCursor.fold) — and
// skips the row Filter. A row that is only possibly true materializes
// whole and passes the cursor's row Filter — the truth every verdict
// is held to (TestTriSoundOverEveryZone, FuzzFragmentKernels) — unless
// its segment's zone already said triTrue for all of them, so zones
// and bitmaps can never change results.

// vecLeafKind tags what a leaf reads.
type vecLeafKind int

const (
	vecUnknown vecLeafKind = iota // not column-decidable: whole column unknown
	vecTime                       // start time vs the meta stripe's tnanos
	vecKind                       // session kind, and login_ok as a kind range, vs the meta stripe's kind bytes
	vecProto                      // protocol vs the dictionary-coded column
	vecIP                         // client IP vs the raw fragment bytes
	vecLogins                     // user, pass vs the logins fragment's elements
	vecCount                      // logins, cmds, dls vs their fragment's element count
	vecCmd                        // the joined command text vs the cmds fragment
	vecFlag                       // state_changed, timeout: fragment true, false or absent
)

// vecNode is one compiled predicate node.
type vecNode struct {
	op   PredOp // PredCmp = leaf
	kids []*vecNode

	leaf  vecLeafKind
	field Field
	cmp   CmpOp
	val   Value
	re    *regexp.Regexp
	tv    int64    // vecTime: comparison instant, unix nanoseconds
	kv    int64    // vecKind: comparison kind
	qv    []byte   // vecIP: the quoted JSON fragment an equal IP encodes to; vecCmd: the literal
	col   int      // fragment leaves: the column read
	lits  [][]byte // vecCmd regex: a match contains one of these (nil: no such set)
}

// vecProg is a compiled predicate: the node tree plus the field columns
// its bitmap leaves read.
type vecProg struct {
	root *vecNode
	cols session.ColumnSet
}

func (n *vecNode) decidesAnything() bool {
	if n.op != PredCmp {
		for _, k := range n.kids {
			if k.decidesAnything() {
				return true
			}
		}
		return false
	}
	return n.leaf != vecUnknown
}

// compile lowers one checked predicate node.
func (g *vecProg) compile(p *Pred) *vecNode {
	switch p.Op {
	case PredAnd, PredOr, PredNot:
		n := &vecNode{op: p.Op, kids: make([]*vecNode, len(p.Kids))}
		for i, k := range p.Kids {
			n.kids[i] = g.compile(k)
		}
		return n
	}
	n := &vecNode{op: PredCmp, field: p.Field, cmp: p.Cmp, val: p.Val, re: p.Re}
	frag := func(k vecLeafKind, col int) {
		n.leaf, n.col = k, col
		g.cols |= 1 << uint(col)
	}
	switch p.Field {
	case FieldStart:
		if tnanoSafe(p.Val.Time.Year()) {
			n.leaf, n.tv = vecTime, p.Val.Time.UnixNano()
		}
	case FieldMonth, FieldDay:
		if lo, hi, ok := startBucket(p.Field, p.Val.Time); ok {
			return bucketNode(p.Cmp, lo, hi)
		}
	case FieldKind:
		n.leaf, n.kv = vecKind, p.Val.Int
	case FieldLoginOK:
		// A record is logged in exactly when its kind is Intrusion or
		// later (session.Record.Kind), so login_ok reads the kind byte.
		n.leaf, n.kv, n.cmp = vecKind, int64(session.Intrusion), CmpLt
		if (p.Cmp == CmpEq) == p.Val.Bool {
			n.cmp = CmpGe
		}
	case FieldProto:
		n.leaf = vecProto
	case FieldIP:
		if p.Cmp == CmpEq || p.Cmp == CmpNe {
			if q, ok := quoteIP(p.Val.Str); ok {
				frag(vecIP, session.ColClientIP)
				n.qv = q
			}
		}
	case FieldUser, FieldPassword:
		frag(vecLogins, session.ColLogins)
	case FieldLogins:
		frag(vecCount, session.ColLogins)
	case FieldCommands:
		frag(vecCount, session.ColCmds)
	case FieldDownloads:
		frag(vecCount, session.ColDls)
	case FieldCmd:
		frag(vecCmd, session.ColCmds)
		n.qv = []byte(p.Val.Str)
		if p.Re != nil {
			// One prefilter, two users: the classifier refutes its rules
			// with the same necessary literals.
			for _, l := range classify.NecessaryLits(p.Re.String()) {
				n.lits = append(n.lits, []byte(l))
			}
		}
	case FieldStateChanged:
		frag(vecFlag, session.ColStateChanged)
	case FieldTimedOut:
		frag(vecFlag, session.ColTimeout)
	}
	return n
}

// startBucket returns the start times [lo, hi), in unix nanoseconds, of
// the month or day that begins at t. ok is false when t begins no such
// bucket — no record's month equals it and an ordering against it cuts
// through one, which is left to the row filter — or when nanoseconds
// cannot hold the bounds.
func startBucket(f Field, t time.Time) (lo, hi int64, ok bool) {
	t = t.UTC()
	begin, end := t.Truncate(24*time.Hour), t.Add(24*time.Hour)
	if f == FieldMonth {
		begin = time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, time.UTC)
		end = begin.AddDate(0, 1, 0)
	}
	if !t.Equal(begin) || !tnanoSafe(t.Year()) || !tnanoSafe(end.Year()) {
		return 0, 0, false
	}
	return t.UnixNano(), end.UnixNano(), true
}

// bucketNode lowers a month or day comparison against the bucket
// [lo, hi) to start-time leaves, so it is decidable wherever start
// times are: zones and the tnanos column alike.
func bucketNode(cmp CmpOp, lo, hi int64) *vecNode {
	before := func(v int64) *vecNode { return &vecNode{op: PredCmp, leaf: vecTime, cmp: CmpLt, tv: v} }
	from := func(v int64) *vecNode { return &vecNode{op: PredCmp, leaf: vecTime, cmp: CmpGe, tv: v} }
	switch cmp {
	case CmpEq:
		return &vecNode{op: PredAnd, kids: []*vecNode{from(lo), before(hi)}}
	case CmpNe:
		return &vecNode{op: PredOr, kids: []*vecNode{before(lo), from(hi)}}
	case CmpLt:
		return before(lo)
	case CmpLe:
		return before(hi)
	case CmpGt:
		return from(hi)
	}
	return from(lo)
}

// timeRange is the conservative start-time range the node implies:
// every matching record's Start falls inside it. AND intersects, OR
// takes the hull, NOT and every non-time leaf are open. It is what
// EXPLAIN prints and what detects a contradictory plan; pruning asks
// tri.
func (n *vecNode) timeRange() TimeRange {
	switch n.op {
	case PredAnd:
		var tr TimeRange
		for _, k := range n.kids {
			tr = intersectRange(tr, k.timeRange())
		}
		return tr
	case PredOr:
		tr := n.kids[0].timeRange()
		for _, k := range n.kids[1:] {
			tr = hullRange(tr, k.timeRange())
		}
		return tr
	case PredNot:
		return TimeRange{}
	}
	if n.leaf != vecTime {
		return TimeRange{}
	}
	t := time.Unix(0, n.tv).UTC()
	switch n.cmp {
	case CmpEq:
		return TimeRange{From: t, To: t.Add(time.Nanosecond)}
	case CmpLt:
		return TimeRange{To: t}
	case CmpLe:
		return TimeRange{To: t.Add(time.Nanosecond)}
	case CmpGt:
		return TimeRange{From: t.Add(time.Nanosecond)}
	case CmpGe:
		return TimeRange{From: t}
	}
	return TimeRange{}
}

// quoteIP returns the exact JSON string fragment a client IP encodes
// to, when the address is plain enough that byte equality on fragments
// equals string equality on decoded values (no JSON escaping).
func quoteIP(s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return nil, false
		}
	}
	q := make([]byte, 0, len(s)+2)
	q = append(q, '"')
	q = append(q, s...)
	return append(q, '"'), true
}

// zone is what the store knows about a set of records without reading
// them: inclusive start-time bounds and which kinds and protocols
// occur. A segment's manifest entry, one bucket of its per-kind or
// per-protocol counts (a zone whose mask has one bit) and a v3 block
// directory all reduce to one.
type zone struct {
	tnOK       bool  // minT/maxT hold; false when a bound overflows int64 nanoseconds
	minT, maxT int64 // unix nanoseconds
	kinds      byte  // bit k: a record of session.Kind k may occur
	protos     byte  // protoMaskBit bits: which protocols may occur
}

func (d *colDir) zone() zone {
	return zone{tnOK: d.tnOK, minT: d.minT, maxT: d.maxT, kinds: d.kindMask, protos: d.protoMask}
}

func (sm *segmentMeta) zone() zone {
	z := zone{
		tnOK: tnanoSafe(sm.MinTime.Year()) && tnanoSafe(sm.MaxTime.Year()),
		minT: sm.MinTime.UnixNano(), maxT: sm.MaxTime.UnixNano(),
	}
	counted := 0
	for k, n := range sm.Kinds {
		if n > 0 {
			z.kinds |= 1 << uint(k)
		}
		counted += n
	}
	if counted != sm.Records {
		z.kinds = 0xff // records the per-kind counts miss: any kind may occur
	}
	if sm.SSH > 0 {
		z.protos |= protoMaskBit(session.ProtoSSH)
	}
	if sm.Telnet > 0 {
		z.protos |= protoMaskBit(session.ProtoTelnet)
	}
	if sm.SSH+sm.Telnet != sm.Records {
		z.protos |= protoOther
	}
	return z
}

// tri answers the node for every record of the zone at once: triTrue
// means all of them match, triFalse none, triUnknown that only reading
// them can tell.
func (n *vecNode) tri(z *zone) tri {
	switch n.op {
	case PredAnd:
		out := triTrue
		for _, k := range n.kids {
			switch k.tri(z) {
			case triFalse:
				return triFalse
			case triUnknown:
				out = triUnknown
			}
		}
		return out
	case PredOr:
		out := triFalse
		for _, k := range n.kids {
			switch k.tri(z) {
			case triTrue:
				return triTrue
			case triUnknown:
				out = triUnknown
			}
		}
		return out
	case PredNot:
		return triNot(n.kids[0].tri(z))
	}
	switch n.leaf {
	case vecTime:
		if !z.tnOK {
			return triUnknown
		}
		return rangeTri(z.minT, z.maxT, n.cmp, n.tv)
	case vecKind:
		return maskTri(z.kinds, func(k int) bool { return cmpI64(int64(k), n.kv, n.cmp) })
	case vecProto:
		if z.protos >= protoOther {
			return triUnknown // rows of a protocol the mask does not name
		}
		return maskTri(z.protos, func(b int) bool {
			return evalCmp(StringValue(maskProtos[b]), n.cmp, n.val, n.re)
		})
	}
	return triUnknown // no zone summarizes a record's fields
}

// protoOther is protoMaskBit's bit for anything but ssh and telnet;
// maskProtos names the protocol of each bit index below it.
const protoOther = 4

var maskProtos = [...]string{session.ProtoSSH, session.ProtoTelnet}

// rangeTri decides cmp(x, v) for every x in [lo, hi] at once.
func rangeTri(lo, hi int64, cmp CmpOp, v int64) tri {
	switch cmp {
	case CmpEq:
		switch {
		case v < lo || v > hi:
			return triFalse
		case lo == hi:
			return triTrue
		}
		return triUnknown
	case CmpNe:
		return triNot(rangeTri(lo, hi, CmpEq, v))
	}
	// An ordering is monotone in x, so it holds throughout, or nowhere,
	// when both ends agree.
	switch l, h := cmpI64(lo, v, cmp), cmpI64(hi, v, cmp); {
	case l && h:
		return triTrue
	case !l && !h:
		return triFalse
	}
	return triUnknown
}

// maskTri asks ok of every value whose bit is set in a presence mask.
func maskTri(mask byte, ok func(bit int) bool) tri {
	all, any := true, false
	for b := 0; mask>>uint(b) != 0; b++ {
		if mask&(1<<uint(b)) == 0 {
			continue
		}
		if ok(b) {
			any = true
		} else {
			all = false
		}
	}
	switch {
	case !any:
		return triFalse
	case all:
		return triTrue
	}
	return triUnknown
}

// tri is Kleene three-valued logic: what a zone or a column knows about
// a record is sometimes only a bound.
type tri int8

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

func triNot(t tri) tri {
	switch t {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	}
	return triUnknown
}

// vecEnv is one block's decoded column state, handed to leaf kernels.
// The raw stripe must be loaded: a row it holds is in no field column.
type vecEnv struct {
	sc   *colScratch
	rows int
	tnOK bool
}

// bitmap helpers: bitmaps are []uint64 with rows bits; trailing bits of
// the last word are kept zero for lo / one-masked handling in callers.

func bmWords(rows int) int { return (rows + 63) / 64 }

func bmZero(b []uint64) {
	for i := range b {
		b[i] = 0
	}
}

func bmFill(b []uint64, rows int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if rows%64 != 0 {
		b[len(b)-1] = (1 << uint(rows%64)) - 1
	}
}

func bmAnd(dst, src []uint64) {
	for i := range dst {
		dst[i] &= src[i]
	}
}

func bmOr(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}

// bmNot complements in place within rows bits.
func bmNot(b []uint64, rows int) {
	for i := range b {
		b[i] = ^b[i]
	}
	if rows%64 != 0 {
		b[len(b)-1] &= (1 << uint(rows%64)) - 1
	}
}

func bmCount(b []uint64) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func bmSet(b []uint64, i int) { b[i>>6] |= 1 << uint(i&63) }

func bmHas(b []uint64, i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

// bmSubset reports whether every bit of a is set in b.
func bmSubset(a, b []uint64) bool {
	for i, w := range a {
		if w&^b[i] != 0 {
			return false
		}
	}
	return true
}

// bmNext returns the first set bit at or after i, or rows.
func bmNext(b []uint64, i, rows int) int {
	for i < rows {
		w := b[i>>6] >> uint(i&63)
		if w != 0 {
			i += bits.TrailingZeros64(w)
			if i >= rows {
				return rows
			}
			return i
		}
		i = (i>>6 + 1) << 6
	}
	return rows
}

// bmAlloc carves bitmap space out of the scratch arena.
type bmAlloc struct {
	arena *[]uint64
	used  int
}

func (a *bmAlloc) get(words int) []uint64 {
	need := a.used + words
	if cap(*a.arena) < need {
		next := make([]uint64, need*2)
		copy(next, (*a.arena)[:a.used])
		*a.arena = next
	}
	*a.arena = (*a.arena)[:cap(*a.arena)]
	b := (*a.arena)[a.used:need]
	a.used = need
	return b
}

// eval computes the node's Kleene bitmap pair over the block: lo bits
// are definitely-true rows, hi bits possibly-true rows.
func (n *vecNode) eval(env *vecEnv, a *bmAlloc, lo, hi []uint64) {
	rows := env.rows
	switch n.op {
	case PredAnd:
		bmFill(lo, rows)
		bmFill(hi, rows)
		klo, khi := a.get(len(lo)), a.get(len(hi))
		for _, k := range n.kids {
			k.eval(env, a, klo, khi)
			bmAnd(lo, klo)
			bmAnd(hi, khi)
		}
		return
	case PredOr:
		bmZero(lo)
		bmZero(hi)
		klo, khi := a.get(len(lo)), a.get(len(hi))
		for _, k := range n.kids {
			k.eval(env, a, klo, khi)
			bmOr(lo, klo)
			bmOr(hi, khi)
		}
		return
	case PredNot:
		// NOT swaps and complements the pair: lo' = ^hi, hi' = ^lo.
		n.kids[0].eval(env, a, hi, lo)
		bmNot(lo, rows)
		bmNot(hi, rows)
		return
	}
	n.evalLeaf(env, lo, hi)
}

// evalLeaf runs one column kernel. Exact verdicts set lo == hi; rows a
// column cannot decide (raw-overflow rows and rejected fragments for
// field leaves, a block without safe nanoseconds for time leaves) get
// lo=0, hi=1.
func (n *vecNode) evalLeaf(env *vecEnv, lo, hi []uint64) {
	rows := env.rows
	sc := env.sc
	switch n.leaf {
	case vecTime:
		if !env.tnOK {
			bmZero(lo)
			bmFill(hi, rows)
			return
		}
		bmZero(lo)
		for i, t := range sc.tnanos {
			if cmpI64(t, n.tv, n.cmp) {
				bmSet(lo, i)
			}
		}
		copy(hi, lo)
	case vecKind:
		bmZero(lo)
		for i, k := range sc.kinds {
			if cmpI64(int64(k), n.kv, n.cmp) {
				bmSet(lo, i)
			}
		}
		copy(hi, lo)
	case vecProto:
		// Evaluate once per dictionary entry, then scatter by index.
		var verdict [16]bool
		ok := len(sc.dict) <= len(verdict)
		if ok {
			for j, p := range sc.dict {
				verdict[j] = evalCmp(StringValue(p), n.cmp, n.val, n.re)
			}
			bmZero(lo)
			for i, di := range sc.protos {
				if verdict[di] {
					bmSet(lo, i)
				}
			}
			copy(hi, lo)
			return
		}
		bmZero(lo)
		bmFill(hi, rows)
	case vecIP, vecLogins, vecCount, vecCmd, vecFlag:
		cd := &sc.cols[n.col]
		bmZero(lo)
		bmZero(hi)
		for i := 0; i < rows; i++ {
			if sc.raw.frag(i) != nil {
				bmSet(hi, i) // raw-overflow row: unknown
				continue
			}
			match, ok := n.fragVerdict(&sc.frag, cd.frag(i))
			switch {
			case !ok:
				bmSet(hi, i)
			case match:
				bmSet(lo, i)
				bmSet(hi, i)
			}
		}
	default:
		bmZero(lo)
		bmFill(hi, rows)
	}
}

// fragVerdict decides the leaf for one shredded row from its column
// fragment (nil: the field is absent, so the array is empty or the flag
// false). ok is false when the fragment is not one the decoder's fast
// grammar accepts: only a decoded record can tell then.
func (n *vecNode) fragVerdict(fr *session.FragReader, frag []byte) (match, ok bool) {
	switch n.leaf {
	case vecIP:
		if frag == nil {
			return false, false // a shredded row always carries client_ip
		}
		return bytes.Equal(frag, n.qv) == (n.cmp == CmpEq), true
	case vecFlag:
		flag, ok := fragFlag(frag)
		return ok && evalCmp(BoolValue(flag), n.cmp, n.val, n.re), ok
	case vecCount:
		count, ok := fragCount(fr, n.col, frag)
		return ok && evalCmp(IntValue(int64(count)), n.cmp, n.val, n.re), ok
	case vecCmd:
		var text []byte
		if frag != nil {
			if text, ok = fr.CommandText(frag); !ok {
				return false, false
			}
		}
		return n.cmpText(text), true
	}
	return n.loginsVerdict(fr, frag)
}

// fragFlag reads a state_changed or timeout fragment: absent (nil) or
// false is false. ok is false for bytes the decoder rejects too.
func fragFlag(frag []byte) (flag, ok bool) {
	switch string(frag) {
	case "", "false":
		return false, true
	case "true":
		return true, true
	}
	return false, false
}

// fragCount is the element count of a logins, cmds or dls fragment of
// column c: 0 when absent (nil), and ok false when the fast grammar
// rejects it.
func fragCount(fr *session.FragReader, c int, frag []byte) (int, bool) {
	if frag == nil {
		return 0, true
	}
	return fr.Count(c, frag)
}

// loginsVerdict decides a vecLogins leaf: user and pass with the
// any-element semantics of evalMulti.
func (n *vecNode) loginsVerdict(fr *session.FragReader, frag []byte) (match, ok bool) {
	hit := false
	if frag != nil {
		ok = fr.Logins(frag, func(user, pass []byte) {
			switch {
			case hit:
			case n.field == FieldUser:
				hit = n.elemHit(user)
			default:
				hit = n.elemHit(pass)
			}
		})
		if !ok {
			return false, false
		}
	}
	return hit == (n.cmp == CmpEq || n.cmp == CmpMatch), true
}

// elemHit is the any-element test of a user or pass leaf on one login.
func (n *vecNode) elemHit(s []byte) bool {
	if n.re != nil {
		return n.re.Match(s)
	}
	return string(s) == n.val.Str
}

// cmpText compares a joined command text against the leaf's literal or
// pattern. A pattern runs only when the text holds one of its necessary
// literals.
func (n *vecNode) cmpText(text []byte) bool {
	switch n.cmp {
	case CmpMatch, CmpNotMatch:
		m := n.lits == nil
		for _, l := range n.lits {
			if bytes.Contains(text, l) {
				m = true
				break
			}
		}
		m = m && n.re.Match(text)
		return m == (n.cmp == CmpMatch)
	}
	return cmpI64(int64(bytes.Compare(text, n.qv)), 0, n.cmp)
}

func cmpI64(a, b int64, cmp CmpOp) bool {
	switch cmp {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	}
	return false
}

// colCursor scans one v3 segment under a lowered plan: per block it
// reads the directory, asks the zone maps whether the block can match
// at all, evaluates the compiled predicate over just its columns, and
// only then loads the returned columns and materializes the selected
// rows — or, for an aggregate, folds them (fold).
type colCursor struct {
	cs    *colSeg
	p     *plan
	stats *PlanStats

	bi     int
	rows   int
	row    int
	dir    colDir
	sel    []uint64 // rows to materialize: the bitmap's possibly-true rows
	lo     []uint64 // rows the bitmap decided true; nil without a compiled predicate
	loaded session.ColumnSet
	pre    session.ColumnSet // columns prefilled from sidecars, stripes unread

	// The block's decode mask: the plan's output mask when the bitmap
	// decided every selected row, so no row Filter reads the record, and
	// the plan's whole mask otherwise.
	mask      session.FieldMask
	need      session.ColumnSet // ColumnsForMask(mask)
	asm       session.Columns
	colIdx    []int  // loaded∩need columns decode refreshes per row
	decodable bool   // the block's decode columns are loaded (prepareDecode)
	ipArena   string // block's client_ip stripe, copied at the block's first decode
	dec       *session.JSONDecoder
	ar        *recArena

	// A fold's state: the columns its fields are read from, and which
	// of its fields the block holds, parallel to aggTable.fields.
	folding  bool
	foldCols session.ColumnSet
	inBlock  []bool
}

// openColCursor opens a scan over one v3 segment.
func (s *Store) openColCursor(meta *segmentMeta, p *plan, stats *PlanStats, ws *scanScratch) (*colCursor, error) {
	cs, err := s.openColSeg(meta, ws.col)
	if err != nil {
		return nil, err
	}
	return &colCursor{cs: cs, p: p, stats: stats, dec: &ws.dec, ar: &ws.arena}, nil
}

func (cc *colCursor) close() error { return cc.cs.close() }

// next returns the next selected record, or io.EOF. decided reports a
// row the bitmap found definitely true, which needs no row Filter.
func (cc *colCursor) next() (r *session.Record, decided bool, err error) {
	for {
		if cc.row >= cc.rows {
			ok, err := cc.nextBlock()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, io.EOF
			}
			continue
		}
		i := bmNext(cc.sel, cc.row, cc.rows)
		if i >= cc.rows {
			cc.row = cc.rows
			continue
		}
		cc.row = i + 1
		r := cc.ar.alloc()
		if err := cc.decode(i, r, cc.mask); err != nil {
			return nil, false, cc.cs.errorf(cc.bi-1, "row %d: %w", i, err)
		}
		if cc.stats != nil {
			cc.stats.ScannedRecords++
		}
		return r, cc.lo != nil && bmHas(cc.lo, i), nil
	}
}

// nextBlock advances to the next block that survives zone pruning and
// the bitmap, loading the columns its mask decodes. Returns false at
// EOF.
func (cc *colCursor) nextBlock() (bool, error) {
	for cc.bi < len(cc.cs.meta.Blocks) {
		bi := cc.bi
		cc.bi++
		if err := cc.cs.readDir(bi, &cc.dir); err != nil {
			return false, err
		}
		prog := cc.p.prog
		if z := cc.dir.zone(); prog != nil && prog.root.tri(&z) == triFalse {
			if cc.stats != nil {
				cc.stats.BlocksZonePruned++
				cc.stats.BlocksSkipped++
			}
			continue
		}
		if err := cc.cs.loadSidecars(&cc.dir, cc.stats); err != nil {
			return false, err
		}
		// Raw overflow before the predicate: a raw row is in no field
		// stripe, so a kernel must know it is not merely absent there.
		if err := cc.cs.loadRaw(&cc.dir, cc.stats); err != nil {
			return false, err
		}
		if cc.cs.s != nil {
			cc.cs.s.blocksRead.Add(1)
		}
		if cc.stats != nil {
			cc.stats.BlocksRead++
		}
		rows := cc.dir.rows
		words := bmWords(rows)
		a := bmAlloc{arena: &cc.cs.sc.bm}
		cc.sel, cc.lo = a.get(words), nil
		cc.loaded = 0
		cc.mask = cc.p.mask

		if prog != nil {
			// Phase 1: only the predicate's columns, then evaluate.
			if err := cc.loadCols(prog.cols); err != nil {
				return false, err
			}
			lo := a.get(words)
			env := &vecEnv{sc: cc.cs.sc, rows: rows, tnOK: len(cc.cs.sc.tnanos) == rows}
			prog.root.eval(env, &a, lo, cc.sel)
			if bmCount(cc.sel) == 0 {
				continue
			}
			cc.lo = lo
			if bmSubset(cc.sel, lo) {
				cc.mask = cc.p.outMask
			}
		} else {
			bmFill(cc.sel, rows)
		}
		cc.need = session.ColumnsForMask(cc.mask)
		cc.rows, cc.row = rows, 0
		cc.decodable, cc.ipArena = false, ""

		// Phase 2: the columns the block's rows read. A fold loads the
		// columns it reads values from, and the block's decode columns
		// only when a row needs a decode (foldDecode).
		if cc.folding {
			return true, cc.loadCols(cc.foldCols & cc.need)
		}
		return true, cc.prepareDecode()
	}
	return false, nil
}

// prepareDecode loads the columns the block's mask decodes and plans
// the per-row assembly. The meta sidecar already holds the protocol
// (via the dictionary) and — when the block's timestamps round-trip
// through nanos — the start time verbatim, so those stripes are never
// loaded: decode prefills the fields from the sidecar instead.
func (cc *colCursor) prepareDecode() error {
	cc.decodable = true
	cc.pre = session.ColumnSet(1 << uint(session.ColProto))
	if len(cc.cs.sc.tnanos) == cc.rows {
		cc.pre |= 1 << uint(session.ColStart)
	}
	if err := cc.loadCols(cc.need &^ cc.pre); err != nil {
		return err
	}
	// Same idea for client_ip, with the loaded stripe itself as the
	// source: when the writer asserted (directory plain bit) that every
	// fragment in the block is a plain quoted ASCII string, one string
	// copy of the whole stripe, made at the block's first decode,
	// replaces a per-row parse-and-allocate — rows slice it, quotes
	// stripped. A retained record pins its block's copy; that is
	// bounded by the block size, the same order as the record's own
	// strings.
	if cc.mask&session.FClientIP != 0 && cc.ipPlain() {
		cc.pre |= 1 << uint(session.ColClientIP)
	}
	cc.asmRebuild()
	return nil
}

// asmRebuild refreshes the per-row assembly plan after the block's
// loaded set changes: columns the decode will never consult go nil
// once, so decode touches only the live ones per row. The decoder
// reads only ColumnsForMask(mask) columns, and the reassembly fallback
// only feeds a masked decode, so loaded predicate-only columns outside
// that set can stay nil too.
func (cc *colCursor) asmRebuild() {
	cc.colIdx = cc.colIdx[:0]
	reads := cc.loaded & cc.need &^ cc.pre
	for c := 0; c < session.NumColumns; c++ {
		if reads.Has(c) {
			cc.colIdx = append(cc.colIdx, c)
		} else {
			cc.asm[c] = nil
		}
	}
}

// loadCols loads the not-yet-loaded columns of the set.
func (cc *colCursor) loadCols(set session.ColumnSet) error {
	for c := 0; c < session.NumColumns; c++ {
		if !set.Has(c) || cc.loaded.Has(c) {
			continue
		}
		if err := cc.cs.loadCol(&cc.dir, c, cc.stats); err != nil {
			return err
		}
		cc.loaded |= 1 << uint(c)
	}
	return nil
}

// ipPlain reports whether the block's client_ip stripe is loaded and
// plain: every fragment a quoted ASCII string a row can slice.
func (cc *colCursor) ipPlain() bool {
	return cc.dir.plain.Has(session.ColClientIP) && cc.loaded.Has(session.ColClientIP) &&
		cc.cs.sc.cols[session.ColClientIP].lens != nil
}

// decode decodes row i into the zeroed record r under mask, a subset of
// the cursor's: raw rows through the whole-line decoder, shredded rows
// column-directly, falling back to reassembly plus the whole-line
// decoder if a fragment bails.
func (cc *colCursor) decode(i int, r *session.Record, mask session.FieldMask) error {
	sc := cc.cs.sc
	if line := sc.raw.frag(i); line != nil {
		return cc.dec.DecodeMasked(line, r, mask)
	}
	for _, c := range cc.colIdx {
		cc.asm[c] = sc.cols[c].frag(i)
	}
	// The record arrives zeroed, so the sidecar values can go straight
	// into it and the decoder skips those columns entirely.
	if cc.pre.Has(session.ColStart) {
		r.Start = time.Unix(0, sc.tnanos[i]).UTC()
	}
	if cc.pre.Has(session.ColProto) {
		r.Protocol = sc.dict[sc.protos[i]]
	}
	if cc.pre.Has(session.ColClientIP) && mask&session.FClientIP != 0 {
		cd := &sc.cols[session.ColClientIP]
		if cc.ipArena == "" {
			cc.ipArena = string(cd.data)
		}
		if l := cd.lens[i]; l >= 2 {
			off := cd.off[i]
			r.ClientIP = cc.ipArena[off+1 : off+l-1]
		}
	}
	if cc.dec.DecodeColumnsPrefilled(&cc.asm, r, mask, cc.pre) {
		return nil
	}
	if cc.pre != 0 {
		// The fallback reassembles a whole line, which needs the real
		// fragments of the prefilled columns: load their stripes and
		// stop prefilling for the rest of this block.
		if err := cc.loadCols(cc.pre); err != nil {
			return err
		}
		cc.pre = 0
		cc.asmRebuild()
		for _, c := range cc.colIdx {
			cc.asm[c] = sc.cols[c].frag(i)
		}
	}
	// A loaded-column subset assembles to a valid canonical line whose
	// masked decode matches the full line's: omitted columns are either
	// outside the mask (never stored) or absent in the original too.
	sc.lineBuf = session.AppendAssembled(sc.lineBuf[:0], &cc.asm)
	return cc.dec.DecodeMasked(sc.lineBuf, r, mask)
}

// fold folds every matching row of the segment into t, decoding only
// what the block does not hold. A row the bitmap decided — every row
// when all is set: the plan has no Filter, or the segment's zone
// matches whole — folds each value its block holds straight from the
// sidecars and field columns, and decodes into rec only the fields left
// over, under just their mask. An undecided row, a raw-overflow row and
// a row one of whose fragments bails decode whole under the block's
// mask, pass the row Filter unless decided, and fold from the record.
// Every selected row counts as examined, folded or decoded.
func (cc *colCursor) fold(t *aggTable, all bool, rec *session.Record) error {
	cc.folding = true
	for _, f := range t.fields {
		if c := foldCol(f); c >= 0 {
			cc.foldCols |= 1 << uint(c)
		}
	}
	for {
		ok, err := cc.nextBlock()
		if err != nil || !ok {
			return err
		}
		sc := cc.cs.sc
		var rest session.FieldMask // the mask of the fields the block lacks
		lacks := false
		cc.inBlock = cc.inBlock[:0]
		for _, f := range t.fields {
			in := cc.holds(f)
			cc.inBlock = append(cc.inBlock, in)
			if !in {
				rest |= f.Mask()
				lacks = true
			}
		}
		for i := bmNext(cc.sel, 0, cc.rows); i < cc.rows; i = bmNext(cc.sel, i+1, cc.rows) {
			if cc.stats != nil {
				cc.stats.ScannedRecords++
			}
			decided := all || cc.lo != nil && bmHas(cc.lo, i)
			if !decided || sc.raw.frag(i) != nil || !cc.blockVals(t, i) {
				if err := cc.foldDecode(i, rec, cc.mask); err != nil {
					return err
				}
				if !decided && !cc.p.filter(rec) {
					continue
				}
				if cc.stats != nil {
					cc.stats.MatchedRecords++
				}
				t.addRecord(rec)
				continue
			}
			if lacks {
				if err := cc.foldDecode(i, rec, rest); err != nil {
					return err
				}
				for k, f := range t.fields {
					if !cc.inBlock[k] {
						t.vals[k].fromRecord(f, rec)
					}
				}
			}
			if cc.stats != nil {
				cc.stats.MatchedRecords++
			}
			t.fold()
		}
	}
}

// foldDecode decodes row i into rec, zeroed first, under mask, loading
// the block's decode columns at its first decode.
func (cc *colCursor) foldDecode(i int, rec *session.Record, mask session.FieldMask) error {
	if !cc.decodable {
		if err := cc.prepareDecode(); err != nil {
			return err
		}
	}
	*rec = session.Record{}
	if err := cc.decode(i, rec, mask); err != nil {
		return cc.cs.errorf(cc.bi-1, "row %d: %w", i, err)
	}
	return nil
}

// holds reports whether the loaded block holds field f for a fold: a
// sidecar value every row has, or a loaded field column read without a
// decode. A row's fragment may still bail (blockVal).
func (cc *colCursor) holds(f Field) bool {
	switch f {
	case FieldNone, FieldKind, FieldProto, FieldLoginOK:
		return true
	case FieldStart, FieldMonth, FieldDay:
		return len(cc.cs.sc.tnanos) == cc.rows
	case FieldDuration:
		return len(cc.cs.sc.tnanos) == cc.rows && cc.loaded.Has(session.ColEnd)
	case FieldIP:
		return cc.ipPlain()
	}
	c := foldCol(f)
	return c >= 0 && cc.loaded.Has(c)
}

// blockVals reads the values of shredded row i the block holds into
// t.vals. It returns false when a fragment bails.
func (cc *colCursor) blockVals(t *aggTable, i int) bool {
	sc := cc.cs.sc
	for k, f := range t.fields {
		if cc.inBlock[k] && !sc.blockVal(f, i, &t.vals[k]) {
			return false
		}
	}
	return true
}

// foldCol is the field column a fold reads field f from, or -1 when a
// sidecar or nothing in the block holds it.
func foldCol(f Field) int {
	switch f {
	case FieldEnd, FieldDuration:
		return session.ColEnd
	case FieldIP:
		return session.ColClientIP
	case FieldLogins:
		return session.ColLogins
	case FieldCommands:
		return session.ColCmds
	case FieldDownloads:
		return session.ColDls
	case FieldStateChanged:
		return session.ColStateChanged
	case FieldTimedOut:
		return session.ColTimeout
	}
	return -1
}

// blockVal reads field f of shredded row i — one colCursor.holds
// admits — into v, equal to fieldValue of the row's decoded record: a
// start time from the start nanoseconds, kind, login_ok and protocol
// from the meta sidecar, the end time and duration from the end
// fragment, the client IP's bytes from a plain stripe, counts and flags
// from their fragments. ok is false when the fragment is one the
// decoder's fast grammar rejects: only a decode can tell then.
func (sc *colScratch) blockVal(f Field, i int, v *foldVal) (ok bool) {
	ok = true
	switch f {
	case FieldStart:
		v.set(TimeValue(time.Unix(0, sc.tnanos[i]).UTC()))
	case FieldMonth:
		y, m, _ := time.Unix(0, sc.tnanos[i]).UTC().Date()
		v.set(MonthValue(time.Date(y, m, 1, 0, 0, 0, 0, time.UTC)))
	case FieldDay:
		v.set(DayValue(time.Unix(0, sc.tnanos[i]).UTC().Truncate(24 * time.Hour)))
	case FieldEnd, FieldDuration:
		var end time.Time
		if end, ok = sc.frag.Time(sc.cols[session.ColEnd].frag(i)); f == FieldEnd {
			v.set(TimeValue(end))
		} else {
			v.set(FloatValue(end.Sub(time.Unix(0, sc.tnanos[i])).Seconds()))
		}
	case FieldKind:
		v.set(KindValue(session.Kind(sc.kinds[i])))
	case FieldLoginOK:
		v.set(BoolValue(session.Kind(sc.kinds[i]) >= session.Intrusion))
	case FieldProto:
		v.set(StringValue(sc.dict[sc.protos[i]]))
	case FieldIP:
		if frag := sc.cols[session.ColClientIP].frag(i); len(frag) >= 2 {
			v.setBytes(frag[1 : len(frag)-1])
		} else {
			v.set(StringValue(""))
		}
	case FieldLogins, FieldCommands, FieldDownloads:
		c := foldCol(f)
		var n int
		n, ok = fragCount(&sc.frag, c, sc.cols[c].frag(i))
		v.set(IntValue(int64(n)))
	case FieldStateChanged, FieldTimedOut:
		var flag bool
		flag, ok = fragFlag(sc.cols[foldCol(f)].frag(i))
		v.set(BoolValue(flag))
	default:
		v.set(Value{})
	}
	return ok
}
