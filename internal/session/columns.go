package session

import (
	"math"
	"time"
)

// Column shredding for the store's v3 columnar segments: a canonical
// record line is split into one raw JSON fragment per top-level field,
// the fragments are stored in per-field column stripes, and a masked
// read reassembles only the fields a query projects. Shredding is
// purely structural — fragments are verbatim byte slices of the input —
// so AppendAssembled(ShredJSON(line)) == line whenever ShredJSON
// accepts, and a line it rejects (non-canonical key order, unknown
// keys, trailing data) is stored whole in the segment's raw overflow
// column instead. FuzzColumnShred pins both properties.

// Column indices, in the canonical key order AppendJSON emits. The
// first six and proto are always present on canonical lines; the rest
// are omitempty and absent fragments are nil.
const (
	ColID = iota
	ColStart
	ColEnd
	ColHP
	ColHPIP
	ColClientIP
	ColClientPort
	ColProto
	ColClientVer
	ColLogins
	ColCmds
	ColDls
	ColExecs
	ColStateChanged
	ColHashes
	ColTimeout

	// NumColumns is the number of per-field columns a record shreds
	// into.
	NumColumns
)

// colKeys holds the exact key literal preceding each column's value in
// a canonical line. ColID's differs because it opens the object.
var colKeys = [NumColumns]string{
	ColID:           `{"id":`,
	ColStart:        `,"start":`,
	ColEnd:          `,"end":`,
	ColHP:           `,"hp":`,
	ColHPIP:         `,"hp_ip":`,
	ColClientIP:     `,"client_ip":`,
	ColClientPort:   `,"client_port":`,
	ColProto:        `,"proto":`,
	ColClientVer:    `,"client_ver":`,
	ColLogins:       `,"logins":`,
	ColCmds:         `,"cmds":`,
	ColDls:          `,"dls":`,
	ColExecs:        `,"execs":`,
	ColStateChanged: `,"state_changed":`,
	ColHashes:       `,"hashes":`,
	ColTimeout:      `,"timeout":`,
}

// ColumnName reports the JSON key of column c (for diagnostics).
func ColumnName(c int) string {
	k := colKeys[c]
	return k[2 : len(k)-2]
}

// Columns holds one record's shredded fragments. Fragments alias the
// line passed to ShredJSON — they are only valid while it is.
type Columns [NumColumns][]byte

// ColumnSet is a bitmask over column indices.
type ColumnSet uint32

// Has reports whether column c is in the set.
func (s ColumnSet) Has(c int) bool { return s&(1<<uint(c)) != 0 }

// requiredColumns are the columns DecodeColumns always reads: the
// always-decoded scalars of DecodeMasked (ID, Start, ClientPort,
// Protocol, StateChanged, TimedOut).
const requiredColumns ColumnSet = 1<<ColID | 1<<ColStart | 1<<ColClientPort |
	1<<ColProto | 1<<ColStateChanged | 1<<ColTimeout

// ColumnsForMask reports which columns a DecodeColumns call with the
// given mask reads: the always-decoded scalars plus the masked
// sections. A store reader can skip every other column at the byte
// level.
func ColumnsForMask(keep FieldMask) ColumnSet {
	s := requiredColumns
	for _, m := range [...]struct {
		f   FieldMask
		col int
	}{
		{FEnd, ColEnd},
		{FHoneypotID, ColHP},
		{FHoneypotIP, ColHPIP},
		{FClientIP, ColClientIP},
		{FClientVersion, ColClientVer},
		{FLogins, ColLogins},
		{FCommands, ColCmds},
		{FDownloads, ColDls},
		{FExecs, ColExecs},
		{FHashes, ColHashes},
	} {
		if keep&m.f != 0 {
			s |= 1 << uint(m.col)
		}
	}
	return s
}

// ShredJSON splits a canonical record line into per-field fragments,
// overwriting cols. It accepts exactly the structural shape AppendJSON
// produces — the canonical key sequence with any omitempty subset —
// without parsing field values, and reports false (cols undefined) for
// anything else. On success every fragment is a verbatim subslice of
// line and AppendAssembled reconstructs line byte-identically.
func ShredJSON(line []byte, cols *Columns) (ok bool) {
	defer recoverBail(&ok)
	*cols = Columns{}
	p := &jsonDec{d: line}
	p.lit(colKeys[ColID])
	cols[ColID] = p.rawValue()
	for c := ColStart; c < NumColumns; c++ {
		if colRequired(c) {
			p.lit(colKeys[c])
		} else if !p.tryLit(colKeys[c]) {
			continue
		}
		cols[c] = p.rawValue()
	}
	p.byte('}')
	if p.i != len(p.d) {
		p.bail()
	}
	return true
}

// colRequired reports whether a canonical line always carries column c
// (fields AppendJSON emits unconditionally).
func colRequired(c int) bool {
	switch c {
	case ColID, ColStart, ColEnd, ColHP, ColClientIP, ColProto:
		return true
	}
	return false
}

// AppendAssembled appends the canonical line the fragments came from
// and returns the extended buffer: the inverse of ShredJSON.
func AppendAssembled(dst []byte, cols *Columns) []byte {
	for c := 0; c < NumColumns; c++ {
		if cols[c] == nil {
			continue
		}
		dst = append(dst, colKeys[c]...)
		dst = append(dst, cols[c]...)
	}
	return append(dst, '}')
}

// rawValue scans one JSON value without interpreting it and returns the
// verbatim bytes. Strings and nested structures are tracked exactly;
// numeric tokens are consumed greedily (validation happens at decode
// time, not shred time — assembly is byte-identical either way).
func (p *jsonDec) rawValue() []byte {
	start := p.i
	switch c := p.peek(); {
	case c == '"':
		p.skipStr()
	case c == '[' || c == '{':
		p.i++
		p.skipArrayTail()
	case c == 't':
		p.lit("true")
	case c == 'f':
		p.lit("false")
	case c == 'n':
		p.lit("null")
	case c == '-' || ('0' <= c && c <= '9'):
		p.i++
		for p.i < len(p.d) {
			switch b := p.d[p.i]; {
			case '0' <= b && b <= '9', b == '.', b == 'e', b == 'E', b == '+', b == '-':
				p.i++
			default:
				return p.d[start:p.i]
			}
		}
	default:
		p.bail()
	}
	return p.d[start:p.i]
}

// DecodeColumns decodes shredded fragments directly into r,
// guaranteeing the same sections as DecodeMasked(keep): the
// always-decoded scalars plus the masked fields. Only the columns in
// ColumnsForMask(keep) are touched, so callers may leave the rest nil.
// It reports false (r undefined) when a fragment is not canonical — the
// caller then reassembles the full line and takes the stdlib decode
// path, exactly like DecodeMasked's fallback.
func (d *JSONDecoder) DecodeColumns(cols *Columns, r *Record, keep FieldMask) bool {
	*r = Record{}
	return d.DecodeColumnsPrefilled(cols, r, keep, 0)
}

// DecodeColumnsPrefilled is DecodeColumns for callers that zeroed r
// themselves and prefilled some of the always-decoded scalars from a
// cheaper source (the v3 sidecar stripes hold start nanos and the
// protocol dictionary verbatim). Columns in skip are never read — their
// fragments may be nil — and the corresponding record fields keep
// whatever the caller stored. Only ColStart, ColProto, and ColClientIP
// are honored in skip. On a false return r is undefined; the fallback
// whole-line decode re-zeroes it.
func (d *JSONDecoder) DecodeColumnsPrefilled(cols *Columns, r *Record, keep FieldMask, skip ColumnSet) (ok bool) {
	defer recoverBail(&ok)
	p := &jsonDec{scratch: &d.scratch}
	if v, okv := fragUint(cols[ColID]); okv {
		r.ID = v
	} else {
		p.bail()
	}
	if !skip.Has(ColStart) {
		p.frag(cols[ColStart]).time(&r.Start)
		p.done()
	}
	if keep&FEnd != 0 {
		p.frag(cols[ColEnd]).time(&r.End)
		p.done()
	}
	if keep&FHoneypotID != 0 {
		r.HoneypotID = p.frag(cols[ColHP]).str()
		p.done()
	}
	if keep&FHoneypotIP != 0 && cols[ColHPIP] != nil {
		r.HoneypotIP = p.frag(cols[ColHPIP]).str()
		p.done()
	}
	if keep&FClientIP != 0 && !skip.Has(ColClientIP) {
		r.ClientIP = p.frag(cols[ColClientIP]).str()
		p.done()
	}
	if cols[ColClientPort] != nil {
		if v, okv := fragInt(cols[ColClientPort]); okv {
			r.ClientPort = int(v)
		} else {
			p.bail()
		}
	}
	if !skip.Has(ColProto) {
		r.Protocol = p.frag(cols[ColProto]).str()
		p.done()
	}
	if keep&FClientVersion != 0 && cols[ColClientVer] != nil {
		r.ClientVersion = p.frag(cols[ColClientVer]).str()
		p.done()
	}
	if keep&FLogins != 0 && cols[ColLogins] != nil {
		p.frag(cols[ColLogins]).byte('[')
		r.Logins = p.loginsArr()
		p.done()
	}
	if keep&FCommands != 0 && cols[ColCmds] != nil {
		p.frag(cols[ColCmds]).byte('[')
		r.Commands = p.cmdsArr()
		p.done()
	}
	if keep&FDownloads != 0 && cols[ColDls] != nil {
		p.frag(cols[ColDls]).byte('[')
		r.Downloads = p.dlsArr()
		p.done()
	}
	if keep&FExecs != 0 && cols[ColExecs] != nil {
		p.frag(cols[ColExecs]).byte('[')
		r.ExecAttempts = p.execsArr()
		p.done()
	}
	if b := cols[ColStateChanged]; b != nil {
		if string(b) == "true" {
			r.StateChanged = true
		} else if string(b) != "false" {
			p.bail()
		}
	}
	if keep&FHashes != 0 && cols[ColHashes] != nil {
		p.frag(cols[ColHashes]).byte('[')
		r.DroppedHashes = p.hashesArr()
		p.done()
	}
	if b := cols[ColTimeout]; b != nil {
		if string(b) == "true" {
			r.TimedOut = true
		} else if string(b) != "false" {
			p.bail()
		}
	}
	return true
}

// fragUint parses a whole fragment as a canonical JSON unsigned
// integer: digits only, no leading zero, fitting uint64 — exactly the
// lines frag().uint() followed by done() accepts, without the decoder
// setup. ok is false for anything else; the caller bails.
func fragUint(b []byte) (v uint64, ok bool) {
	if len(b) == 0 || (b[0] == '0' && len(b) > 1) {
		return 0, false
	}
	if len(b) <= 19 {
		// At most 19 digits can't overflow uint64 (MaxUint64 has 20),
		// so the common case skips the per-digit range check.
		for _, c := range b {
			if c-'0' > 9 {
				return 0, false
			}
			v = v*10 + uint64(c-'0')
		}
		return v, true
	}
	for _, c := range b {
		if c-'0' > 9 {
			return 0, false
		}
		d := uint64(c - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// fragInt is fragUint with an optional leading minus, mirroring
// frag().int() + done() including its range checks and "-0".
func fragInt(b []byte) (int64, bool) {
	if len(b) > 0 && b[0] == '-' {
		v, ok := fragUint(b[1:])
		if !ok || v > 1<<63 {
			return 0, false
		}
		return -int64(v), true
	}
	v, ok := fragUint(b)
	if !ok || v > math.MaxInt64 {
		return 0, false
	}
	return int64(v), true
}

// FragReader reads the logins, cmds and dls array fragments and the
// start and end times of a shredded record without building a Record:
// a store scan decides predicates over those columns, and folds values
// from them, straight from the stripes with it. It walks the
// grammar DecodeColumns decodes with, so a fragment it accepts decodes
// to exactly the values it reports, and one it rejects is one the
// decoder also bails on — the caller must then decide that row from a
// decoded record. Values alias the fragment or the reader's scratch and
// are valid until the next call. The zero value is ready to use; a
// FragReader is not safe for concurrent use.
type FragReader struct {
	p       jsonDec
	scratch [3][]byte
	text    []byte
}

// open points the reader at an array fragment and consumes its '['.
func (fr *FragReader) open(frag []byte) *jsonDec {
	fr.p = jsonDec{d: frag, scratch: &fr.scratch}
	fr.p.byte('[')
	return &fr.p
}

// Logins calls fn with the user and password of each login of a logins
// fragment, escapes decoded, and reports whether the fragment was
// accepted. On false, fn may have seen a prefix of the logins.
func (fr *FragReader) Logins(frag []byte, fn func(user, pass []byte)) (ok bool) {
	defer recoverBail(&ok)
	p := fr.open(frag)
	for more := p.arrayOpen(); more; more = p.arrayMore() {
		user, pass, _ := p.loginElem()
		fn(user, pass)
	}
	p.done()
	return true
}

// Count returns the element count of a logins, cmds or dls fragment
// (column c) — len of the slice the decoder would build.
func (fr *FragReader) Count(c int, frag []byte) (n int, ok bool) {
	defer recoverBail(&ok)
	p := fr.open(frag)
	for more := p.arrayOpen(); more; more = p.arrayMore() {
		switch c {
		case ColLogins:
			p.loginElem()
		case ColCmds:
			p.cmdElem()
		case ColDls:
			p.dlElem()
		default:
			p.bail()
		}
		n++
	}
	p.done()
	return n, true
}

// Time returns the time of a start or end fragment, parsed exactly as
// the decoder parses it.
func (fr *FragReader) Time(frag []byte) (t time.Time, ok bool) {
	defer recoverBail(&ok)
	fr.p = jsonDec{d: frag}
	fr.p.time(&t)
	fr.p.done()
	return t, true
}

// CommandText returns the joined command text of a cmds fragment,
// byte-equal to the decoded record's CommandText(), in a buffer the
// next call reuses.
func (fr *FragReader) CommandText(frag []byte) (text []byte, ok bool) {
	defer recoverBail(&ok)
	p := fr.open(frag)
	fr.text = fr.text[:0]
	for more, sep := p.arrayOpen(), false; more; more, sep = p.arrayMore(), true {
		raw, _ := p.cmdElem()
		if sep {
			fr.text = append(fr.text, '\n')
		}
		fr.text = append(fr.text, raw...)
	}
	p.done()
	return fr.text, true
}

// frag repoints the decoder at one fragment.
func (p *jsonDec) frag(b []byte) *jsonDec {
	if b == nil {
		p.bail()
	}
	p.d, p.i = b, 0
	return p
}

// done requires the current fragment to be fully consumed.
func (p *jsonDec) done() {
	if p.i != len(p.d) {
		p.bail()
	}
}
