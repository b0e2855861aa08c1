package store

// The unified query surface: a structured Query (typed predicate tree +
// projection + aggregation) that Store, Fleet, and the hnquery planner
// all execute through one entry point, RunQuery. The executor sees
// through the predicate, so it can push work down: a statement is
// lowered once (plan) into a compiled tree that is asked one
// three-valued question of a zone summary — a segment's, a metadata
// bucket's, a block directory's — so segments and blocks the predicate
// refutes are never read and count(*) aggregates whose buckets all
// come out definite answer from sealed metadata with zero block reads;
// `ip =` conjuncts route through the Bloom filters, and projections
// skip decoding unused record fields.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"honeynet/internal/session"
)

// Field names one queryable attribute of a session record.
type Field int

const (
	FieldNone Field = iota
	FieldStart
	FieldEnd
	FieldDuration
	FieldMonth
	FieldDay
	FieldID
	FieldHoneypot
	FieldHoneypotIP
	FieldIP
	FieldPort
	FieldProto
	FieldClientVer
	FieldKind
	FieldUser
	FieldPassword
	FieldLoginOK
	FieldLogins
	FieldCmd
	FieldCommands
	FieldDownloads
	FieldURI
	FieldHash
	FieldStateChanged
	FieldTimedOut
)

// fieldInfo is the static schema: name, value kind, whether the field
// yields multiple values per record (any-element predicate semantics),
// and the decoder mask bits it needs.
type fieldInfo struct {
	name  string
	kind  ValueKind
	multi bool
	mask  session.FieldMask
}

var fieldInfos = map[Field]fieldInfo{
	FieldStart:        {"start", ValTime, false, 0},
	FieldEnd:          {"end", ValTime, false, session.FEnd},
	FieldDuration:     {"duration", ValFloat, false, session.FEnd},
	FieldMonth:        {"month", ValMonth, false, 0},
	FieldDay:          {"day", ValDay, false, 0},
	FieldID:           {"id", ValInt, false, 0},
	FieldHoneypot:     {"hp", ValString, false, session.FHoneypotID},
	FieldHoneypotIP:   {"hp_ip", ValString, false, session.FHoneypotIP},
	FieldIP:           {"ip", ValString, false, session.FClientIP},
	FieldPort:         {"port", ValInt, false, 0},
	FieldProto:        {"proto", ValString, false, 0},
	FieldClientVer:    {"client_ver", ValString, false, session.FClientVersion},
	FieldKind:         {"kind", ValSessionKind, false, session.FLogins | session.FCommands},
	FieldUser:         {"user", ValString, true, session.FLogins},
	FieldPassword:     {"pass", ValString, true, session.FLogins},
	FieldLoginOK:      {"login_ok", ValBool, false, session.FLogins},
	FieldLogins:       {"logins", ValInt, false, session.FLogins},
	FieldCmd:          {"cmd", ValString, false, session.FCommands},
	FieldCommands:     {"cmds", ValInt, false, session.FCommands},
	FieldDownloads:    {"dls", ValInt, false, session.FDownloads},
	FieldURI:          {"uri", ValString, true, session.FDownloads},
	FieldHash:         {"hash", ValString, true, session.FHashes},
	FieldStateChanged: {"state_changed", ValBool, false, 0},
	FieldTimedOut:     {"timeout", ValBool, false, 0},
}

// Name returns the field's DSL name.
func (f Field) Name() string {
	if fi, ok := fieldInfos[f]; ok {
		return fi.name
	}
	return fmt.Sprintf("field(%d)", int(f))
}

// Type returns the value kind the field yields.
func (f Field) Type() ValueKind { return fieldInfos[f].kind }

// Multi reports whether the field yields multiple values per record.
func (f Field) Multi() bool { return fieldInfos[f].multi }

// Mask returns the decoder field-mask bits the field needs.
func (f Field) Mask() session.FieldMask { return fieldInfos[f].mask }

// ValueOf extracts the field's value from a record (the first element
// for multi-valued fields, a null Value when absent).
func (f Field) ValueOf(r *session.Record) Value { return fieldValue(f, r) }

// ValueKind tags a Value.
type ValueKind int

const (
	ValNull ValueKind = iota
	ValString
	ValInt
	ValFloat
	ValBool
	ValTime
	ValMonth
	ValDay
	ValSessionKind
)

// Value is the typed scalar queries compare, group by, and return.
type Value struct {
	Kind  ValueKind
	Str   string
	Int   int64
	Float float64
	Bool  bool
	Time  time.Time
}

// Convenience constructors.
func StringValue(s string) Value     { return Value{Kind: ValString, Str: s} }
func IntValue(n int64) Value         { return Value{Kind: ValInt, Int: n} }
func FloatValue(f float64) Value     { return Value{Kind: ValFloat, Float: f} }
func BoolValue(b bool) Value         { return Value{Kind: ValBool, Bool: b} }
func TimeValue(t time.Time) Value    { return Value{Kind: ValTime, Time: t} }
func MonthValue(t time.Time) Value   { return Value{Kind: ValMonth, Time: t} }
func DayValue(t time.Time) Value     { return Value{Kind: ValDay, Time: t} }
func KindValue(k session.Kind) Value { return Value{Kind: ValSessionKind, Int: int64(k)} }

// String formats the value the way reports print it.
func (v Value) String() string {
	switch v.Kind {
	case ValNull:
		return ""
	case ValString:
		return v.Str
	case ValInt:
		return strconv.FormatInt(v.Int, 10)
	case ValFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case ValBool:
		return strconv.FormatBool(v.Bool)
	case ValTime:
		return v.Time.UTC().Format(time.RFC3339)
	case ValMonth:
		return v.Time.UTC().Format(monthLayout)
	case ValDay:
		return v.Time.UTC().Format("2006-01-02")
	case ValSessionKind:
		return session.Kind(v.Int).String()
	}
	return ""
}

// less orders values of the same kind; it is the deterministic group
// sort behind every aggregated result.
func (v Value) less(o Value) bool {
	if v.Kind != o.Kind {
		return v.Kind < o.Kind
	}
	switch v.Kind {
	case ValString:
		return v.Str < o.Str
	case ValInt, ValSessionKind:
		return v.Int < o.Int
	case ValFloat:
		return v.Float < o.Float
	case ValBool:
		return !v.Bool && o.Bool
	case ValTime, ValMonth, ValDay:
		return v.Time.Before(o.Time)
	}
	return false
}

func (v Value) equal(o Value) bool { return !v.less(o) && !o.less(v) }

// Less is the exported ordering (ORDER BY uses it).
func (v Value) Less(o Value) bool { return v.less(o) }

// PredOp tags a predicate tree node.
type PredOp int

const (
	PredCmp PredOp = iota
	PredAnd
	PredOr
	PredNot
)

// CmpOp is a comparison operator at a predicate leaf.
type CmpOp int

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
	CmpMatch
	CmpNotMatch
)

func (op CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">=", "~", "!~"}[op]
}

// Pred is a typed predicate tree. Leaves (PredCmp) compare one field
// against a literal; inner nodes combine children. Multi-valued fields
// use any-element semantics for Eq/Match and no-element for
// Ne/NotMatch.
type Pred struct {
	Op    PredOp
	Kids  []*Pred
	Field Field
	Cmp   CmpOp
	Val   Value
	Re    *regexp.Regexp
}

// And, Or, Not, Cmp, and Match build predicate trees.
func And(kids ...*Pred) *Pred { return &Pred{Op: PredAnd, Kids: kids} }
func Or(kids ...*Pred) *Pred  { return &Pred{Op: PredOr, Kids: kids} }
func Not(kid *Pred) *Pred     { return &Pred{Op: PredNot, Kids: []*Pred{kid}} }

func Cmp(f Field, op CmpOp, v Value) *Pred {
	return &Pred{Op: PredCmp, Field: f, Cmp: op, Val: v}
}

func Match(f Field, re *regexp.Regexp, negate bool) *Pred {
	op := CmpMatch
	if negate {
		op = CmpNotMatch
	}
	return &Pred{Op: PredCmp, Field: f, Cmp: op, Re: re}
}

// CompilePred validates a predicate tree and compiles it to a Filter.
// A nil tree compiles to a nil Filter (select all).
func CompilePred(p *Pred) (Filter, error) {
	if p == nil {
		return nil, nil
	}
	if err := checkPred(p); err != nil {
		return nil, err
	}
	return evalFunc(p), nil
}

// checkPred type-checks one predicate tree.
func checkPred(p *Pred) error {
	switch p.Op {
	case PredAnd, PredOr:
		if len(p.Kids) == 0 {
			return fmt.Errorf("query: empty %s", map[PredOp]string{PredAnd: "AND", PredOr: "OR"}[p.Op])
		}
		for _, k := range p.Kids {
			if err := checkPred(k); err != nil {
				return err
			}
		}
		return nil
	case PredNot:
		if len(p.Kids) != 1 {
			return fmt.Errorf("query: NOT takes one operand")
		}
		return checkPred(p.Kids[0])
	}
	fi, ok := fieldInfos[p.Field]
	if !ok {
		return fmt.Errorf("query: unknown field in predicate")
	}
	switch p.Cmp {
	case CmpMatch, CmpNotMatch:
		if fi.kind != ValString {
			return fmt.Errorf("query: %s: ~ requires a string field", fi.name)
		}
		if p.Re == nil {
			return fmt.Errorf("query: %s: missing pattern", fi.name)
		}
		return nil
	case CmpLt, CmpLe, CmpGt, CmpGe:
		if fi.multi {
			return fmt.Errorf("query: %s: ordering comparison on multi-valued field", fi.name)
		}
		if fi.kind == ValBool {
			return fmt.Errorf("query: %s: ordering comparison on boolean field", fi.name)
		}
	}
	if !valueCompatible(fi.kind, p.Val.Kind) {
		return fmt.Errorf("query: %s: cannot compare %s field with %s literal",
			fi.name, kindName(fi.kind), kindName(p.Val.Kind))
	}
	return nil
}

func kindName(k ValueKind) string {
	return [...]string{"null", "string", "int", "float", "bool", "time", "month", "day", "kind"}[k]
}

// valueCompatible reports whether a literal of kind lv can compare with
// a field of kind fv.
func valueCompatible(fv, lv ValueKind) bool {
	if fv == lv {
		return true
	}
	switch fv {
	case ValInt, ValFloat:
		return lv == ValInt || lv == ValFloat
	case ValTime, ValMonth, ValDay:
		return lv == ValTime || lv == ValMonth || lv == ValDay
	case ValSessionKind:
		return lv == ValSessionKind || lv == ValInt
	}
	return false
}

// evalFunc compiles a checked tree to a closure.
func evalFunc(p *Pred) Filter {
	switch p.Op {
	case PredAnd:
		kids := make([]Filter, len(p.Kids))
		for i, k := range p.Kids {
			kids[i] = evalFunc(k)
		}
		return func(r *session.Record) bool {
			for _, k := range kids {
				if !k(r) {
					return false
				}
			}
			return true
		}
	case PredOr:
		kids := make([]Filter, len(p.Kids))
		for i, k := range p.Kids {
			kids[i] = evalFunc(k)
		}
		return func(r *session.Record) bool {
			for _, k := range kids {
				if k(r) {
					return true
				}
			}
			return false
		}
	case PredNot:
		kid := evalFunc(p.Kids[0])
		return func(r *session.Record) bool { return !kid(r) }
	}
	f, cmp, val, re := p.Field, p.Cmp, p.Val, p.Re
	if fieldInfos[f].multi {
		return func(r *session.Record) bool { return evalMulti(f, cmp, val, re, r) }
	}
	return func(r *session.Record) bool { return evalCmp(fieldValue(f, r), cmp, val, re) }
}

// evalMulti applies any-element semantics for Eq/Match and no-element
// semantics for Ne/NotMatch over a multi-valued string field.
func evalMulti(f Field, cmp CmpOp, val Value, re *regexp.Regexp, r *session.Record) bool {
	any := func(pred func(string) bool) bool {
		switch f {
		case FieldUser:
			for i := range r.Logins {
				if pred(r.Logins[i].Username) {
					return true
				}
			}
		case FieldPassword:
			for i := range r.Logins {
				if pred(r.Logins[i].Password) {
					return true
				}
			}
		case FieldURI:
			for i := range r.Downloads {
				if pred(r.Downloads[i].URI) {
					return true
				}
			}
		case FieldHash:
			for _, h := range r.DroppedHashes {
				if pred(h) {
					return true
				}
			}
		}
		return false
	}
	switch cmp {
	case CmpEq:
		return any(func(s string) bool { return s == val.Str })
	case CmpNe:
		return !any(func(s string) bool { return s == val.Str })
	case CmpMatch:
		return any(re.MatchString)
	case CmpNotMatch:
		return !any(re.MatchString)
	}
	return false
}

// fieldValue extracts a single-valued field (or the first element of a
// multi-valued one) from a record.
func fieldValue(f Field, r *session.Record) Value {
	switch f {
	case FieldStart:
		return TimeValue(r.Start)
	case FieldEnd:
		return TimeValue(r.End)
	case FieldDuration:
		return FloatValue(r.End.Sub(r.Start).Seconds())
	case FieldMonth:
		return MonthValue(r.Month())
	case FieldDay:
		return DayValue(r.Day())
	case FieldID:
		return IntValue(int64(r.ID))
	case FieldHoneypot:
		return StringValue(r.HoneypotID)
	case FieldHoneypotIP:
		return StringValue(r.HoneypotIP)
	case FieldIP:
		return StringValue(r.ClientIP)
	case FieldPort:
		return IntValue(int64(r.ClientPort))
	case FieldProto:
		return StringValue(r.Protocol)
	case FieldClientVer:
		return StringValue(r.ClientVersion)
	case FieldKind:
		return KindValue(r.Kind())
	case FieldUser:
		if len(r.Logins) > 0 {
			return StringValue(r.Logins[0].Username)
		}
		return Value{}
	case FieldPassword:
		if len(r.Logins) > 0 {
			return StringValue(r.Logins[0].Password)
		}
		return Value{}
	case FieldLoginOK:
		return BoolValue(r.LoggedIn())
	case FieldLogins:
		return IntValue(int64(len(r.Logins)))
	case FieldCmd:
		return StringValue(r.CommandText())
	case FieldCommands:
		return IntValue(int64(len(r.Commands)))
	case FieldDownloads:
		return IntValue(int64(len(r.Downloads)))
	case FieldURI:
		if len(r.Downloads) > 0 {
			return StringValue(r.Downloads[0].URI)
		}
		return Value{}
	case FieldHash:
		if len(r.DroppedHashes) > 0 {
			return StringValue(r.DroppedHashes[0])
		}
		return Value{}
	case FieldStateChanged:
		return BoolValue(r.StateChanged)
	case FieldTimedOut:
		return BoolValue(r.TimedOut)
	}
	return Value{}
}

// evalCmp compares one extracted value against a literal.
func evalCmp(v Value, cmp CmpOp, val Value, re *regexp.Regexp) bool {
	switch cmp {
	case CmpMatch:
		return re.MatchString(v.Str)
	case CmpNotMatch:
		return !re.MatchString(v.Str)
	}
	c := compareValues(v, val)
	switch cmp {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// compareValues compares across the compatible-kind pairs
// valueCompatible admits (ints vs floats, times vs months vs days).
func compareValues(a, b Value) int {
	switch a.Kind {
	case ValString:
		return strings.Compare(a.Str, b.Str)
	case ValBool:
		switch {
		case a.Bool == b.Bool:
			return 0
		case !a.Bool:
			return -1
		}
		return 1
	case ValInt, ValSessionKind:
		if b.Kind == ValFloat {
			return cmpFloat(float64(a.Int), b.Float)
		}
		switch {
		case a.Int < b.Int:
			return -1
		case a.Int > b.Int:
			return 1
		}
		return 0
	case ValFloat:
		bf := b.Float
		if b.Kind == ValInt {
			bf = float64(b.Int)
		}
		return cmpFloat(a.Float, bf)
	case ValTime, ValMonth, ValDay:
		switch {
		case a.Time.Before(b.Time):
			return -1
		case a.Time.After(b.Time):
			return 1
		}
		return 0
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// AggOp is an aggregation function.
type AggOp int

const (
	AggCount AggOp = iota
	AggCountDistinct
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (op AggOp) String() string {
	return [...]string{"count", "count_distinct", "sum", "avg", "min", "max"}[op]
}

// AggSpec is one aggregate output column. Field is FieldNone for
// count(*).
type AggSpec struct {
	Op    AggOp
	Field Field
}

// Query is the structured query every execution path shares: an
// optional typed predicate tree, a projection, and an optional
// aggregation.
type Query struct {
	Where *Pred

	// Select lists the fields a row-mode caller will read; the decoder
	// skips the rest. Empty means all fields (full records).
	Select []Field

	// GroupBy + Aggs switch the query to aggregation mode: one output
	// row per distinct GroupBy key, columns Aggs. GroupBy without Aggs
	// is invalid; Aggs without GroupBy is a single global row.
	GroupBy []Field
	Aggs    []AggSpec

	// Limit bounds row-mode results (0 = unlimited).
	Limit int

	// OrderBy sorts row-mode results by one field (FieldNone = store
	// order). With a Limit the sort runs as a bounded top-k heap below
	// the scan — memory O(limit), not O(result) — keyed on the sort
	// column alone. Incompatible with Aggs.
	OrderBy Field
	// Desc reverses the OrderBy direction.
	Desc bool
}

// PlanStats describes what the planner chose and what pruning achieved,
// so pushdown is observable rather than assumed.
type PlanStats struct {
	// Mode is "empty" for a contradictory predicate, "ip-scan" when a
	// required client IP routed the scan through the Bloom filters, and
	// otherwise says where the answer came from: "metadata" (no segment
	// scanned), "hybrid" (some answered from metadata, some scanned) or
	// "scan".
	Mode string

	Segments int // sealed segments in the snapshot
	// TimePruned counts segments skipped unread because their zone —
	// start-time bounds, kinds and protocols present — refutes the
	// predicate. Time bounds are the common case, hence the name.
	TimePruned      int
	BloomChecked    int // segments probed by the Bloom route
	BloomPruned     int // segments the Bloom filter excluded
	MetaSegments    int // segments answered from sealed metadata
	ScannedSegments int // segments whose blocks were opened
	TailRecords     int // unsealed records considered

	BlocksRead    int64 // compressed blocks read and decoded
	BlocksSkipped int64 // blocks in segments answered without reading

	// Columnar (v3) pushdown: blocks whose directory zone refutes the
	// predicate, pruned before any stripe decompressed, and the stripes
	// actually touched.
	BlocksZonePruned int64
	StripesRead      int64
	StripeBytes      int64 // compressed bytes of stripes read

	ScannedRecords int64 // rows the scan examined: decoded, or folded from their block
	MatchedRecords int64 // records that passed every predicate

	// TopK is the bounded ORDER BY/LIMIT heap size when the sort was
	// pushed below the aggregator (0 = no pushdown).
	TopK int

	From, To time.Time // effective pushed-down time range
	IP       string    // effective pushed-down exact-IP route
}

// add accumulates shard stats into fleet-wide stats.
func (ps *PlanStats) add(o *PlanStats) {
	ps.Segments += o.Segments
	ps.TimePruned += o.TimePruned
	ps.BloomChecked += o.BloomChecked
	ps.BloomPruned += o.BloomPruned
	ps.MetaSegments += o.MetaSegments
	ps.ScannedSegments += o.ScannedSegments
	ps.TailRecords += o.TailRecords
	ps.BlocksRead += o.BlocksRead
	ps.BlocksSkipped += o.BlocksSkipped
	ps.BlocksZonePruned += o.BlocksZonePruned
	ps.StripesRead += o.StripesRead
	ps.StripeBytes += o.StripeBytes
	ps.ScannedRecords += o.ScannedRecords
	ps.MatchedRecords += o.MatchedRecords
	if o.TopK > ps.TopK {
		ps.TopK = o.TopK
	}
}

// Lines renders the stats as EXPLAIN output.
func (ps *PlanStats) Lines() []string {
	rng := "all time"
	if !ps.From.IsZero() || !ps.To.IsZero() {
		f, t := "-inf", "+inf"
		if !ps.From.IsZero() {
			f = ps.From.UTC().Format(time.RFC3339)
		}
		if !ps.To.IsZero() {
			t = ps.To.UTC().Format(time.RFC3339)
		}
		rng = fmt.Sprintf("[%s, %s)", f, t)
	}
	out := []string{
		fmt.Sprintf("plan: %s", ps.Mode),
		fmt.Sprintf("time range: %s", rng),
	}
	if ps.IP != "" {
		out = append(out, fmt.Sprintf("ip route: %s (Bloom-probed)", ps.IP))
	}
	out = append(out,
		fmt.Sprintf("segments: %d total, %d time-pruned, %d Bloom-checked, %d Bloom-pruned",
			ps.Segments, ps.TimePruned, ps.BloomChecked, ps.BloomPruned),
		fmt.Sprintf("answered from metadata: %d segments (%d blocks skipped)",
			ps.MetaSegments, ps.BlocksSkipped),
		fmt.Sprintf("scanned: %d segments, %d blocks read, %d tail records",
			ps.ScannedSegments, ps.BlocksRead, ps.TailRecords),
		fmt.Sprintf("records: %d decoded, %d matched", ps.ScannedRecords, ps.MatchedRecords),
	)
	if ps.BlocksZonePruned > 0 || ps.StripesRead > 0 {
		out = append(out, fmt.Sprintf("columnar: %d blocks zone-pruned, %d stripes read (%d compressed bytes)",
			ps.BlocksZonePruned, ps.StripesRead, ps.StripeBytes))
	}
	if ps.TopK > 0 {
		out = append(out, fmt.Sprintf("order by: top-%d heap pushed below the scan", ps.TopK))
	}
	return out
}

// GroupRow is one aggregated output row.
type GroupRow struct {
	Keys []Value // one per Query.GroupBy field
	Aggs []Value // one per Query.Aggs spec
}

// RecordCursor is the streaming-record interface every cursor of this
// package satisfies: query results and the Stream of a Store or Fleet.
type RecordCursor interface {
	Next() bool
	Record() *session.Record
	Err() error
	Close() error
}

// Result is a query's output: either finalized group rows (aggregation
// mode) or a streaming record cursor (row mode), plus plan statistics.
type Result struct {
	agg   bool
	rows  []GroupRow
	cur   RecordCursor
	n     int
	limit int
	stats *PlanStats
}

// Aggregated reports whether the result holds group rows rather than a
// record stream.
func (r *Result) Aggregated() bool { return r.agg }

// Groups returns the aggregated rows, sorted by group key.
func (r *Result) Groups() []GroupRow { return r.rows }

// Next advances a row-mode result to the next record. Hitting the
// LIMIT closes the underlying cursor immediately, so pooled block
// scratch goes back even when the caller never calls Close.
func (r *Result) Next() bool {
	if r.agg || r.cur == nil {
		return false
	}
	if r.limit > 0 && r.n >= r.limit {
		r.cur.Close()
		return false
	}
	if !r.cur.Next() {
		return false
	}
	r.n++
	return true
}

// Record returns the record Next advanced to.
func (r *Result) Record() *session.Record {
	if r.cur == nil {
		return nil
	}
	return r.cur.Record()
}

// Err returns the first error the query hit, if any.
func (r *Result) Err() error {
	if r.cur == nil {
		return nil
	}
	return r.cur.Err()
}

// Close releases any open cursor. Safe on aggregated results.
func (r *Result) Close() error {
	if r.cur == nil {
		return nil
	}
	return r.cur.Close()
}

// Stats returns the plan statistics.
func (r *Result) Stats() PlanStats { return *r.stats }

// validate checks the query's shape and compiles its predicate.
func (q *Query) validate() (Filter, error) {
	if len(q.GroupBy) > 0 && len(q.Aggs) == 0 {
		return nil, fmt.Errorf("query: GROUP BY without aggregates")
	}
	if len(q.Aggs) > 0 && len(q.Select) > 0 {
		return nil, fmt.Errorf("query: Select and Aggs are mutually exclusive")
	}
	for _, f := range q.Select {
		if _, ok := fieldInfos[f]; !ok {
			return nil, fmt.Errorf("query: unknown select field")
		}
	}
	for _, f := range q.GroupBy {
		if fi, ok := fieldInfos[f]; !ok {
			return nil, fmt.Errorf("query: unknown group-by field")
		} else if fi.multi {
			return nil, fmt.Errorf("query: %s: cannot group by multi-valued field", fi.name)
		}
	}
	if q.OrderBy != FieldNone {
		if len(q.Aggs) > 0 {
			return nil, fmt.Errorf("query: OrderBy applies to row mode, not aggregates")
		}
		if fi, ok := fieldInfos[q.OrderBy]; !ok {
			return nil, fmt.Errorf("query: unknown order-by field")
		} else if fi.multi {
			return nil, fmt.Errorf("query: %s: cannot order by multi-valued field", fi.name)
		}
	}
	for _, a := range q.Aggs {
		switch a.Op {
		case AggCount:
			// count(*) or count(field) both fine.
			if a.Field != FieldNone {
				if _, ok := fieldInfos[a.Field]; !ok {
					return nil, fmt.Errorf("query: unknown count field")
				}
			}
		case AggCountDistinct:
			if _, ok := fieldInfos[a.Field]; !ok {
				return nil, fmt.Errorf("query: count(distinct) needs a field")
			}
		case AggSum, AggAvg, AggMin, AggMax:
			fi, ok := fieldInfos[a.Field]
			if !ok {
				return nil, fmt.Errorf("query: %s needs a field", a.Op)
			}
			if fi.multi {
				return nil, fmt.Errorf("query: %s(%s): aggregate over multi-valued field", a.Op, fi.name)
			}
			if a.Op == AggSum || a.Op == AggAvg {
				if fi.kind != ValInt && fi.kind != ValFloat {
					return nil, fmt.Errorf("query: %s(%s): field is not numeric", a.Op, fi.name)
				}
			} else if fi.kind == ValBool {
				return nil, fmt.Errorf("query: %s(%s): field is not orderable", a.Op, fi.name)
			}
		default:
			return nil, fmt.Errorf("query: unknown aggregate")
		}
	}
	return CompilePred(q.Where)
}

// outMask is the decoder field mask of what the query returns: its
// projection, group keys, aggregates and sort key — every field, for
// full records.
func (q *Query) outMask() session.FieldMask {
	if len(q.Aggs) == 0 && len(q.Select) == 0 {
		return session.FAllFields // full records requested
	}
	var m session.FieldMask
	for _, f := range q.Select {
		m |= f.Mask()
	}
	for _, f := range q.GroupBy {
		m |= f.Mask()
	}
	for _, a := range q.Aggs {
		if a.Field != FieldNone {
			m |= a.Field.Mask()
		}
	}
	if q.OrderBy != FieldNone {
		m |= q.OrderBy.Mask()
	}
	return m
}

func predMask(p *Pred) session.FieldMask {
	if p == nil {
		return 0
	}
	if p.Op == PredCmp {
		return p.Field.Mask()
	}
	var m session.FieldMask
	for _, k := range p.Kids {
		m |= predMask(k)
	}
	return m
}

// intersectRange narrows to the overlap of two ranges (zero = open).
func intersectRange(a, b TimeRange) TimeRange {
	out := a
	if out.From.IsZero() || (!b.From.IsZero() && b.From.After(out.From)) {
		out.From = b.From
	}
	if out.To.IsZero() || (!b.To.IsZero() && b.To.Before(out.To)) {
		out.To = b.To
	}
	return out
}

// hullRange widens to cover both ranges; an open side stays open.
func hullRange(a, b TimeRange) TimeRange {
	var out TimeRange
	if !a.From.IsZero() && !b.From.IsZero() {
		out.From = a.From
		if b.From.Before(out.From) {
			out.From = b.From
		}
	}
	if !a.To.IsZero() && !b.To.IsZero() {
		out.To = a.To
		if b.To.After(out.To) {
			out.To = b.To
		}
	}
	return out
}

// emptyRange reports a contradictory (always-false) range.
func emptyRange(tr TimeRange) bool {
	return !tr.From.IsZero() && !tr.To.IsZero() && !tr.From.Before(tr.To)
}

// predIP extracts an exact client-IP route from required top-level AND
// conjuncts. The second return is false on a contradiction (two
// different required IPs).
func predIP(p *Pred) (string, bool) {
	if p == nil {
		return "", true
	}
	switch p.Op {
	case PredCmp:
		if p.Field == FieldIP && p.Cmp == CmpEq && p.Val.Kind == ValString {
			return p.Val.Str, true
		}
		return "", true
	case PredAnd:
		ip := ""
		for _, k := range p.Kids {
			kip, ok := predIP(k)
			if !ok {
				return "", false
			}
			if kip == "" {
				continue
			}
			if ip != "" && ip != kip {
				return "", false
			}
			ip = kip
		}
		return ip, true
	}
	return "", true
}

// plan is one statement lowered once — validated, type-checked and
// compiled — and run unchanged by every shard: the row Filter that
// decides a record, the compiled tree that answers for zones and
// blocks, the Bloom route, the decoder mask and the facts EXPLAIN
// prints.
type plan struct {
	q       *Query
	filter  Filter            // the truth test; nil selects all
	prog    *vecProg          // q.Where compiled; nil when it decides no zone or column
	mask    session.FieldMask // fields the statement reads: outMask plus the predicate's
	outMask session.FieldMask // fields the statement returns
	tr      TimeRange         // start-time range the predicate implies
	ip      string            // required client IP, probed against segment Bloom filters
	empty   bool              // the predicate contradicts itself
	splits  []Field           // see metaSplits
}

// lower validates q and compiles it into a plan.
func lower(q *Query) (*plan, error) {
	filter, err := q.validate()
	if err != nil {
		return nil, err
	}
	out := q.outMask()
	p := &plan{q: q, filter: filter, mask: out | predMask(q.Where), outMask: out}
	if q.Where != nil {
		prog := &vecProg{}
		prog.root = prog.compile(q.Where)
		if prog.root.decidesAnything() {
			p.prog = prog
		}
		p.tr = prog.root.timeRange()
		ip, ok := predIP(q.Where)
		p.ip = ip
		p.empty = !ok || emptyRange(p.tr)
	}

	p.splits = metaSplits(q)
	return p, nil
}

// metaSplits lists the ways a statement lets a segment's records be
// bucketed from its manifest entry — whole, by kind, by protocol — or
// nil when metadata cannot answer it: every aggregate must be
// count(*), and since segments record kind and protocol marginals, not
// their joint, the GROUP BY can name at most one of the two.
func metaSplits(q *Query) []Field {
	if len(q.Aggs) == 0 {
		return nil
	}
	for _, a := range q.Aggs {
		if a.Op != AggCount || a.Field != FieldNone {
			return nil
		}
	}
	by := FieldNone
	for _, f := range q.GroupBy {
		switch {
		case f == FieldMonth:
		case (f == FieldKind || f == FieldProto) && by == FieldNone:
			by = f
		default:
			return nil
		}
	}
	if by != FieldNone {
		return []Field{by}
	}
	return []Field{FieldNone, FieldKind, FieldProto}
}

// tri asks the predicate of a zone.
func (p *plan) tri(z zone) tri {
	switch {
	case p.q.Where == nil:
		return triTrue
	case p.prog == nil:
		return triUnknown
	}
	return p.prog.root.tri(&z)
}

// newStats starts a shard's plan statistics from what lowering decided.
func (p *plan) newStats() *PlanStats {
	st := &PlanStats{Mode: "scan", From: p.tr.From, To: p.tr.To, IP: p.ip}
	switch {
	case p.empty:
		st.Mode = "empty"
	case p.ip != "":
		st.Mode = "ip-scan"
	}
	return st
}

// run executes the plan given how its source aggregates and scans:
// Store and Fleet differ only in those two.
func (p *plan) run(stats *PlanStats, agg func() (*aggTable, error), scan func() RecordCursor) (*Result, error) {
	q := p.q
	switch {
	case len(q.Aggs) > 0:
		tab := newAggTable(q.GroupBy, q.Aggs)
		if !p.empty {
			var err error
			if tab, err = agg(); err != nil {
				return nil, err
			}
		}
		return &Result{agg: true, rows: tab.finalize(), stats: stats}, nil
	case p.empty:
		return &Result{cur: &sliceCursor{}, limit: q.Limit, stats: stats}, nil
	}
	cur := scan()
	if q.OrderBy != FieldNone {
		// ORDER BY pushdown: stream the scan through a bounded top-k
		// heap instead of materializing and sorting the result. A fleet
		// scan already merges shards in global store order, so the same
		// heap gives the fleet-wide answer with the same tie-break.
		rows, err := collectTopK(cur, q.OrderBy, q.Desc, q.Limit)
		if err != nil {
			return nil, err
		}
		if q.Limit > 0 {
			stats.TopK = q.Limit
		}
		cur = &sliceCursor{rows: rows}
	}
	return &Result{cur: cur, limit: q.Limit, stats: stats}, nil
}

// RunQuery executes a structured query against the store. Aggregation
// queries return finalized group rows; row queries return a streaming
// cursor. The caller must Close the result.
func (s *Store) RunQuery(q *Query) (*Result, error) {
	p, err := lower(q)
	if err != nil {
		return nil, err
	}
	stats := p.newStats()
	return p.run(stats,
		func() (*aggTable, error) {
			tab, _, err := p.aggregate([]*Store{s}, []*PlanStats{stats})
			return tab, err
		},
		func() RecordCursor { return s.scanQ(p, stats) })
}

// segFromMetadata folds one sealed segment into a count(*) table from
// its manifest entry alone, if some split the plan allows leaves the
// predicate definite on every bucket. It returns false — contributing
// nothing — when every split has an undecidable bucket, and the caller
// scans the segment's blocks instead.
func (p *plan) segFromMetadata(seg *segmentMeta, z zone, tab *aggTable) bool {
	month := MonthValue(seg.month())
	for _, by := range p.splits {
		buckets, n := seg.buckets(by, z)
		var verdicts [len(buckets)]tri
		definite := n > 0
		for i := 0; i < n && definite; i++ {
			verdicts[i] = p.tri(buckets[i].zone)
			definite = verdicts[i] != triUnknown
		}
		if !definite {
			continue
		}
		for i, b := range buckets[:n] {
			if verdicts[i] == triFalse {
				continue
			}
			keys := make([]Value, len(p.q.GroupBy))
			for j, f := range p.q.GroupBy {
				switch f {
				case FieldMonth:
					keys[j] = month
				case FieldKind:
					keys[j] = KindValue(session.Kind(bits.TrailingZeros8(b.kinds)))
				case FieldProto:
					keys[j] = StringValue(maskProtos[bits.TrailingZeros8(b.protos)])
				}
			}
			tab.addCount(keys, int64(b.n))
		}
		return true
	}
	return false
}

// bucket is a group of a segment's records its manifest entry counts:
// their zone, narrowed to one kind or protocol, and how many they are.
type bucket struct {
	zone
	n int
}

// maxBuckets is the most buckets a split yields: one per kind.
const maxBuckets = len(segmentMeta{}.Kinds)

// buckets splits the records of a segment whose zone is z the way its
// manifest entry counts them: whole (FieldNone), per kind or per
// protocol. It returns none when those counts do not cover every
// record.
func (sm *segmentMeta) buckets(by Field, z zone) (out [maxBuckets]bucket, n int) {
	add := func(b zone, count int) {
		if count > 0 {
			out[n], n = bucket{b, count}, n+1
		}
	}
	switch {
	case by == FieldNone:
		add(z, sm.Records)
	case by == FieldKind && z.kinds != 0xff:
		for k, count := range sm.Kinds {
			b := z
			b.kinds = 1 << uint(k)
			add(b, count)
		}
	case by == FieldProto && z.protos < protoOther:
		for i, count := range [...]int{sm.SSH, sm.Telnet} {
			b := z
			b.protos = 1 << uint(i)
			add(b, count)
		}
	}
	return out, n
}

// aggTable accumulates streaming group-by state: one row per distinct
// key, mergeable across shards for fleet scatter-gather. A row folds
// from its values, not its record: fields lists what one fold reads —
// the group keys, then each aggregate's field — and vals holds them,
// taken from a record (addRecord) or read straight from a block
// (colCursor.fold). Both feed the one fold.
type aggTable struct {
	groupBy []Field
	aggs    []AggSpec
	fields  []Field
	vals    []foldVal // one row's values, parallel to fields
	rows    map[string]*aggRow
	kb      []byte // key encoding scratch
}

type aggRow struct {
	keys []Value
	accs []aggAcc
}

type aggAcc struct {
	n        int64
	sum      float64
	min, max Value
	hasMM    bool

	// A count(distinct) set: a string value that spells a dotted quad
	// (parseQuad) as its packed address in quads, any other value's key
	// in set. The two never hold the same value, so the count is their
	// sizes added. quads[:sorted] is sorted and unique; the rest is
	// appended as folded.
	set    map[string]bool
	quads  []uint32
	sorted int
}

// addQuad adds a packed dotted quad. A tail of unsorted additions as
// long as the sorted prefix is sorted in first, so the set stays within
// about twice its distinct size.
func (a *aggAcc) addQuad(q uint32) {
	if len(a.quads) == cap(a.quads) && len(a.quads)-a.sorted >= max(a.sorted, 256) {
		a.sortQuads()
	}
	a.quads = append(a.quads, q)
}

// sortQuads sorts and dedupes the quads.
func (a *aggAcc) sortQuads() {
	if a.sorted < len(a.quads) {
		slices.Sort(a.quads)
		a.quads = slices.Compact(a.quads)
		a.sorted = len(a.quads)
	}
}

// parseQuad packs a dotted quad spelled the one way an IPv4 address
// prints: four decimal parts of at most 255, no leading zeros.
func parseQuad[S string | []byte](s S) (uint32, bool) {
	var q uint32
	part, digits, dots := uint32(0), 0, 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if digits == 0 || part > 255 {
				return 0, false
			}
			q, part, digits = q<<8|part, 0, 0
			if i < len(s) {
				dots++
			}
			continue
		}
		c := s[i]
		if c < '0' || c > '9' || digits == 3 || digits == 1 && part == 0 {
			return 0, false
		}
		part, digits = 10*part+uint32(c-'0'), digits+1
	}
	return q, dots == 3
}

// distinct is how many values the set holds.
func (a *aggAcc) distinct() int {
	a.sortQuads()
	return len(a.quads) + len(a.set)
}

// mergeDistinct takes b's set in; b is spent. The quads merge as a
// sorted union, the other keys into the larger of the two maps.
func (a *aggAcc) mergeDistinct(b *aggAcc) {
	a.sortQuads()
	b.sortQuads()
	n, m := len(a.quads), len(b.quads)
	a.quads = slices.Grow(a.quads, m)[:n+m]
	for i, j, k := n-1, m-1, n+m-1; j >= 0; k-- {
		if i >= 0 && a.quads[i] > b.quads[j] {
			a.quads[k], i = a.quads[i], i-1
		} else {
			a.quads[k], j = b.quads[j], j-1
		}
	}
	a.quads = slices.Compact(a.quads)
	a.sorted = len(a.quads)
	if len(b.set) > len(a.set) {
		a.set, b.set = b.set, a.set
	}
	for s := range b.set {
		a.set[s] = true
	}
}

func newAggTable(groupBy []Field, aggs []AggSpec) *aggTable {
	t := &aggTable{groupBy: groupBy, aggs: aggs, rows: map[string]*aggRow{}}
	t.fields = append([]Field(nil), groupBy...)
	for _, a := range aggs {
		t.fields = append(t.fields, a.Field)
	}
	t.vals = make([]foldVal, len(t.fields))
	return t
}

// foldVal is one value a fold reads. A string a block holds stays in
// str, its bytes in the block, and becomes a Value only when the table
// keeps it; elems are a multi-valued field's elements, which
// count(distinct) folds one by one.
type foldVal struct {
	v     Value
	str   []byte // non-nil: v is the ValString these bytes spell
	elems []string
}

func (f *foldVal) set(v Value) { f.v, f.str = v, nil }

func (f *foldVal) setBytes(b []byte) { f.v, f.str = Value{Kind: ValString}, b }

// value returns the value as one the table may keep.
func (f *foldVal) value() Value {
	if f.str != nil {
		return StringValue(string(f.str))
	}
	return f.v
}

// appendKey is appendKey of the value, with no string made.
func (f *foldVal) appendKey(b []byte) []byte {
	if f.str == nil {
		return appendKey(b, f.v)
	}
	return appendKeyString(b, f.str)
}

// quad is parseQuad of a string value.
func (f *foldVal) quad() (uint32, bool) {
	switch {
	case f.str != nil:
		return parseQuad(f.str)
	case f.v.Kind == ValString:
		return parseQuad(f.v.Str)
	}
	return 0, false
}

// less and more order the value against a kept one of its kind.
func (f *foldVal) less(o Value) bool {
	if f.str != nil {
		return string(f.str) < o.Str
	}
	return f.v.less(o)
}

func (f *foldVal) more(o Value) bool {
	if f.str != nil {
		return string(f.str) > o.Str
	}
	return o.less(f.v)
}

// fromRecord takes field fd's value from a record.
func (f *foldVal) fromRecord(fd Field, r *session.Record) {
	f.set(fieldValue(fd, r))
	if fieldInfos[fd].multi {
		f.elems = appendElems(f.elems[:0], fd, r)
	}
}

// appendKey appends the exact encoding of one group key or distinct
// value: its kind, then a length-prefixed string or a fixed-width
// number — a time as its second and nanosecond. Two tuples of values
// encode alike only when they are equal value for value; the rendered
// String() is neither (it drops sub-second time and cannot tell where
// one string ends).
func appendKey(b []byte, v Value) []byte {
	if v.Kind == ValString {
		return appendKeyString(b, v.Str)
	}
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case ValInt, ValSessionKind:
		return binary.BigEndian.AppendUint64(b, uint64(v.Int))
	case ValFloat:
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float))
	case ValBool:
		if v.Bool {
			return append(b, 1)
		}
		return append(b, 0)
	case ValTime, ValMonth, ValDay:
		b = binary.BigEndian.AppendUint64(b, uint64(v.Time.Unix()))
		return binary.BigEndian.AppendUint32(b, uint32(v.Time.Nanosecond()))
	}
	return b
}

// appendKeyString is appendKey of a string value, from its bytes.
func appendKeyString[S string | []byte](b []byte, s S) []byte {
	b = append(b, byte(ValString))
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// row returns the row of the given keys, adding it if new.
func (t *aggTable) row(keys []Value) *aggRow {
	t.kb = t.kb[:0]
	for _, k := range keys {
		t.kb = appendKey(t.kb, k)
	}
	if r, ok := t.rows[string(t.kb)]; ok {
		return r
	}
	return t.insert(append([]Value(nil), keys...))
}

// insert adds a row with the given keys under the encoding in t.kb.
func (t *aggTable) insert(keys []Value) *aggRow {
	r := &aggRow{keys: keys, accs: make([]aggAcc, len(t.aggs))}
	for i := range r.accs {
		if t.aggs[i].Op == AggCountDistinct {
			r.accs[i].set = map[string]bool{}
		}
	}
	t.rows[string(t.kb)] = r
	return r
}

// addCount folds a metadata bucket of n records into a count-only
// table.
func (t *aggTable) addCount(keys []Value, n int64) {
	r := t.row(keys)
	for i := range r.accs {
		r.accs[i].n += n
	}
}

// addRecord folds one record.
func (t *aggTable) addRecord(rec *session.Record) {
	for i, f := range t.fields {
		t.vals[i].fromRecord(f, rec)
	}
	t.fold()
}

// fold folds the row whose values t.vals holds.
func (t *aggTable) fold() {
	ng := len(t.groupBy)
	t.kb = t.kb[:0]
	for i := range t.vals[:ng] {
		t.kb = t.vals[i].appendKey(t.kb)
	}
	r, ok := t.rows[string(t.kb)]
	if !ok {
		keys := make([]Value, ng)
		for i := range keys {
			keys[i] = t.vals[i].value()
		}
		r = t.insert(keys)
	}
	for i, spec := range t.aggs {
		acc, v := &r.accs[i], &t.vals[ng+i]
		switch spec.Op {
		case AggCount:
			if spec.Field == FieldNone || v.v.Kind != ValNull {
				acc.n++
			}
		case AggCountDistinct:
			if fieldInfos[spec.Field].multi {
				for _, s := range v.elems {
					if q, ok := parseQuad(s); ok {
						acc.addQuad(q)
					} else {
						acc.set[s] = true
					}
				}
			} else if q, ok := v.quad(); ok {
				acc.addQuad(q)
			} else if v.v.Kind != ValNull {
				t.kb = v.appendKey(t.kb[:0])
				if !acc.set[string(t.kb)] {
					acc.set[string(t.kb)] = true
				}
			}
		case AggSum, AggAvg:
			acc.n++
			if v.v.Kind == ValInt {
				acc.sum += float64(v.v.Int)
			} else {
				acc.sum += v.v.Float
			}
		case AggMin, AggMax:
			if v.v.Kind == ValNull {
				break
			}
			if !acc.hasMM {
				x := v.value()
				acc.min, acc.max, acc.hasMM = x, x, true
				break
			}
			if v.less(acc.min) {
				acc.min = v.value()
			}
			if v.more(acc.max) {
				acc.max = v.value()
			}
		}
	}
}

// appendElems appends a multi-valued field's elements.
func appendElems(out []string, f Field, r *session.Record) []string {
	switch f {
	case FieldUser:
		for i := range r.Logins {
			out = append(out, r.Logins[i].Username)
		}
	case FieldPassword:
		for i := range r.Logins {
			out = append(out, r.Logins[i].Password)
		}
	case FieldURI:
		for i := range r.Downloads {
			out = append(out, r.Downloads[i].URI)
		}
	case FieldHash:
		out = append(out, r.DroppedHashes...)
	}
	return out
}

// merge folds another part's or shard's table in; o is spent. Distinct
// quads merge as a sorted union, and other distinct keys into the
// larger of the two maps, so the largest part's map is never
// re-inserted. Counts and float sums add in merge order.
func (t *aggTable) merge(o *aggTable) {
	for k, or := range o.rows {
		r, ok := t.rows[k]
		if !ok {
			t.rows[k] = or
			continue
		}
		for i := range r.accs {
			a, b := &r.accs[i], &or.accs[i]
			a.n += b.n
			a.sum += b.sum
			a.mergeDistinct(b)
			if b.hasMM {
				if !a.hasMM {
					a.min, a.max, a.hasMM = b.min, b.max, true
				} else {
					if b.min.less(a.min) {
						a.min = b.min
					}
					if a.max.less(b.max) {
						a.max = b.max
					}
				}
			}
		}
	}
}

// sortDistinct sorts and dedupes every distinct set's quads, so a merge
// is left only their union.
func (t *aggTable) sortDistinct() {
	for _, r := range t.rows {
		for i := range r.accs {
			r.accs[i].sortQuads()
		}
	}
}

// finalize renders sorted group rows.
func (t *aggTable) finalize() []GroupRow {
	out := make([]GroupRow, 0, len(t.rows))
	for _, r := range t.rows {
		row := GroupRow{Keys: r.keys, Aggs: make([]Value, len(t.aggs))}
		for i, spec := range t.aggs {
			acc := &r.accs[i]
			switch spec.Op {
			case AggCount:
				row.Aggs[i] = IntValue(acc.n)
			case AggCountDistinct:
				row.Aggs[i] = IntValue(int64(acc.distinct()))
			case AggSum:
				row.Aggs[i] = sumValue(spec.Field, acc.sum)
			case AggAvg:
				if acc.n == 0 {
					row.Aggs[i] = Value{}
				} else {
					row.Aggs[i] = FloatValue(acc.sum / float64(acc.n))
				}
			case AggMin:
				row.Aggs[i] = acc.min
			case AggMax:
				row.Aggs[i] = acc.max
			}
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Keys, out[j].Keys
		for k := range a {
			if !a[k].equal(b[k]) {
				return a[k].less(b[k])
			}
		}
		return false
	})
	return out
}

// sumValue keeps integer sums integral.
func sumValue(f Field, sum float64) Value {
	if fieldInfos[f].kind == ValInt {
		return IntValue(int64(sum))
	}
	return FloatValue(sum)
}

// RunQuery executes a structured query fleet-wide: the statement is
// lowered once and every shard runs the same plan; an aggregation reads
// the parts of every shard through one part executor, row queries
// stream through the canonical (month, Start, node) merge order, and
// plan statistics sum.
func (f *Fleet) RunQuery(q *Query) (*Result, error) {
	p, err := lower(q)
	if err != nil {
		return nil, err
	}
	total := p.newStats()
	return p.run(total,
		func() (*aggTable, error) {
			stats := make([]*PlanStats, len(f.shards))
			for i := range stats {
				stats[i] = p.newStats()
			}
			tab, bad, err := p.aggregate(f.stores(), stats)
			if err != nil {
				return nil, fmt.Errorf("store: fleet shard %s: %w", f.shards[bad].Node, err)
			}
			for i, st := range stats {
				total.add(st)
				if i > 0 && st.Mode != total.Mode {
					total.Mode = "hybrid"
				} else {
					total.Mode = st.Mode
				}
			}
			return tab, nil
		},
		func() RecordCursor {
			return f.scatter(func(s *Store) *Cursor { return s.scanQ(p, total) })
		})
}
