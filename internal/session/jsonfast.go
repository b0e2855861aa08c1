package session

import (
	"encoding/json"
	"math"
	"math/bits"
	"strconv"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the store's record codec: a hand-rolled encoder and
// decoder for Record that produce byte-for-byte the same output and
// value-for-value the same result as encoding/json, at a fraction of
// the cost. encoding/json stays the reference implementation: the
// encoder falls back to json.Marshal for inputs outside the canonical
// fast path (times RFC 3339 cannot represent), and the decoder falls
// back to json.Unmarshal on any input that is not exactly the shape the
// encoder produces — so behaviour, including errors, never diverges.
// FuzzRecordJSON pins the equivalence in both directions.

const hexDigits = "0123456789abcdef"

// jsonSafe marks ASCII bytes encoding/json (with HTML escaping, the
// json.Marshal default) passes through unescaped.
var jsonSafe [utf8.RuneSelf]bool

func init() {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		jsonSafe[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&'} {
		jsonSafe[c] = false
	}
}

// AppendJSON appends r encoded exactly as json.Marshal(r) would encode
// it and returns the extended buffer. The output is byte-identical to
// encoding/json in every case: inputs the fast path cannot represent
// canonically are delegated to json.Marshal wholesale.
func AppendJSON(dst []byte, r *Record) ([]byte, error) {
	if r == nil {
		return append(dst, "null"...), nil
	}
	n0 := len(dst)
	var ok bool
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, r.ID, 10)
	dst = append(dst, `,"start":`...)
	if dst, ok = appendTimeJSON(dst, r.Start); !ok {
		return appendJSONFallback(dst[:n0], r)
	}
	dst = append(dst, `,"end":`...)
	if dst, ok = appendTimeJSON(dst, r.End); !ok {
		return appendJSONFallback(dst[:n0], r)
	}
	dst = append(dst, `,"hp":`...)
	dst = appendJSONString(dst, r.HoneypotID)
	if r.HoneypotIP != "" {
		dst = append(dst, `,"hp_ip":`...)
		dst = appendJSONString(dst, r.HoneypotIP)
	}
	dst = append(dst, `,"client_ip":`...)
	dst = appendJSONString(dst, r.ClientIP)
	if r.ClientPort != 0 {
		dst = append(dst, `,"client_port":`...)
		dst = strconv.AppendInt(dst, int64(r.ClientPort), 10)
	}
	dst = append(dst, `,"proto":`...)
	dst = appendJSONString(dst, r.Protocol)
	if r.ClientVersion != "" {
		dst = append(dst, `,"client_ver":`...)
		dst = appendJSONString(dst, r.ClientVersion)
	}
	if len(r.Logins) > 0 {
		dst = append(dst, `,"logins":[`...)
		for i := range r.Logins {
			if i > 0 {
				dst = append(dst, ',')
			}
			l := &r.Logins[i]
			dst = append(dst, `{"user":`...)
			dst = appendJSONString(dst, l.Username)
			dst = append(dst, `,"pass":`...)
			dst = appendJSONString(dst, l.Password)
			dst = append(dst, `,"ok":`...)
			dst = appendJSONBool(dst, l.Success)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(r.Commands) > 0 {
		dst = append(dst, `,"cmds":[`...)
		for i := range r.Commands {
			if i > 0 {
				dst = append(dst, ',')
			}
			c := &r.Commands[i]
			dst = append(dst, `{"raw":`...)
			dst = appendJSONString(dst, c.Raw)
			dst = append(dst, `,"known":`...)
			dst = appendJSONBool(dst, c.Known)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(r.Downloads) > 0 {
		dst = append(dst, `,"dls":[`...)
		for i := range r.Downloads {
			if i > 0 {
				dst = append(dst, ',')
			}
			d := &r.Downloads[i]
			dst = append(dst, `{"uri":`...)
			dst = appendJSONString(dst, d.URI)
			if d.SourceIP != "" {
				dst = append(dst, `,"src_ip":`...)
				dst = appendJSONString(dst, d.SourceIP)
			}
			if d.Hash != "" {
				dst = append(dst, `,"hash":`...)
				dst = appendJSONString(dst, d.Hash)
			}
			if d.Size != 0 {
				dst = append(dst, `,"size":`...)
				dst = strconv.AppendInt(dst, d.Size, 10)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(r.ExecAttempts) > 0 {
		dst = append(dst, `,"execs":[`...)
		for i := range r.ExecAttempts {
			if i > 0 {
				dst = append(dst, ',')
			}
			e := &r.ExecAttempts[i]
			dst = append(dst, `{"path":`...)
			dst = appendJSONString(dst, e.Path)
			dst = append(dst, `,"exists":`...)
			dst = appendJSONBool(dst, e.FileExists)
			if e.Hash != "" {
				dst = append(dst, `,"hash":`...)
				dst = appendJSONString(dst, e.Hash)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if r.StateChanged {
		dst = append(dst, `,"state_changed":true`...)
	}
	if len(r.DroppedHashes) > 0 {
		dst = append(dst, `,"hashes":[`...)
		for i, h := range r.DroppedHashes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, h)
		}
		dst = append(dst, ']')
	}
	if r.TimedOut {
		dst = append(dst, `,"timeout":true`...)
	}
	return append(dst, '}'), nil
}

// appendJSONFallback discards the partial fast-path output and encodes
// the whole record through encoding/json, so both the bytes and any
// error are exactly the stdlib's.
func appendJSONFallback(dst []byte, r *Record) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

func appendJSONBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// appendTimeJSON appends t as a quoted RFC 3339 timestamp. It reports
// ok=false for the same inputs time.Time.MarshalJSON rejects (year
// outside [0,9999], zone hour outside [0,23]); the caller then falls
// back to encoding/json so the error matches the stdlib's.
func appendTimeJSON(dst []byte, t time.Time) ([]byte, bool) {
	dst = append(dst, '"')
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if len(dst)-n0 < len("2006-01-02T15:04:05Z") || dst[n0+4] != '-' {
		return dst, false // year not exactly 4 digits
	}
	if dst[len(dst)-1] != 'Z' {
		c := dst[len(dst)-6]
		if ('0' <= c && c <= '9') || 10*(dst[len(dst)-5]-'0')+(dst[len(dst)-4]-'0') >= 24 {
			return dst, false // zone hour outside [0,23]
		}
	}
	return append(dst, '"'), true
}

// le64str loads 8 little-endian bytes of s at i (the compiler folds
// this into a single load).
func le64str(s string, i int) uint64 {
	_ = s[i+7]
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// jsonUnsafeMask flags, per byte lane (high bit), bytes a JSON string
// cannot carry verbatim under encoding/json's HTML-escaping rules:
// anything below 0x20 or above 0x7F, and " \ < > &.
func jsonUnsafeMask(x uint64) uint64 {
	const (
		ones = 0x0101010101010101
		his  = 0x8080808080808080
	)
	eq := func(c byte) uint64 {
		z := x ^ (ones * uint64(c))
		return (z - ones) &^ z & his
	}
	unsafe := x & his                    // ≥ 0x80
	unsafe |= (x - ones*0x20) &^ x & his // < 0x20 (only meaningful when the high bit is clear)
	return unsafe | eq('"') | eq('\\') | eq('<') | eq('>') | eq('&')
}

// appendJSONString appends s JSON-quoted exactly as encoding/json does
// with HTML escaping on: ", \, control characters, <, >, &, U+2028/29
// escaped, invalid UTF-8 replaced with �.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		// Skip runs of plain ASCII eight bytes at a time; the byte and
		// rune handling below only ever sees flagged positions (or the
		// sub-8-byte tail).
		for i+8 <= len(s) {
			u := jsonUnsafeMask(le64str(s, i))
			if u != 0 {
				i += bits.TrailingZeros64(u) >> 3
				break
			}
			i += 8
		}
		if i >= len(s) {
			break
		}
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// FieldMask selects which Record sections a projected decode must
// populate. Cheap scalar fields (ID, Start, ClientPort, the booleans)
// are always decoded; the maskable sections are the ones whose decode
// costs an allocation (strings) or a slice build (the nested arrays).
// A masked-out section is left at its zero value on the fast path, but
// callers must treat it as unspecified: non-canonical input falls back
// to a full stdlib decode, which populates everything.
type FieldMask uint16

const (
	FEnd FieldMask = 1 << iota
	FHoneypotID
	FHoneypotIP
	FClientIP
	FClientVersion
	FLogins
	FCommands
	FDownloads
	FExecs
	FHashes

	// FAllFields decodes every section; DecodeMasked(FAllFields) is
	// exactly Decode.
	FAllFields FieldMask = 1<<10 - 1
)

// JSONDecoder decodes record lines, keeping its unescape scratch
// buffers across calls. The zero value is ready to use; a decoder is not safe
// for concurrent use.
type JSONDecoder struct {
	scratch [3][]byte
}

// Decode decodes one record line into r, overwriting it. The fast path
// accepts exactly the canonical encoding AppendJSON/json.Marshal
// produce; any other input — reordered or unknown keys, whitespace,
// null, unusual number forms — is delegated to json.Unmarshal, so the
// result (including errors) always matches the stdlib on a zero Record.
func (d *JSONDecoder) Decode(data []byte, r *Record) error {
	*r = Record{}
	if d.decodeFast(data, r, FAllFields) {
		return nil
	}
	*r = Record{}
	return json.Unmarshal(data, r)
}

// DecodeMasked decodes one record line into r, guaranteeing only the
// sections selected by keep (plus the always-decoded scalars: ID, Start,
// ClientPort, Protocol, StateChanged, TimedOut). Skipped string fields
// avoid the unescape-and-allocate step and skipped arrays avoid the
// slice build entirely, so a query that projects a few fields decodes a
// fraction of each record. Sections outside keep hold unspecified
// values — zero on the fast path, fully decoded after a stdlib
// fallback.
func (d *JSONDecoder) DecodeMasked(data []byte, r *Record, keep FieldMask) error {
	*r = Record{}
	if d.decodeFast(data, r, keep) {
		return nil
	}
	*r = Record{}
	return json.Unmarshal(data, r)
}

// errBailFast signals "not canonical — use encoding/json" inside the
// fast path. It is the only panic decodeFast recovers.
type errBailFast struct{}

// jsonDec is the fast path's parser state. scratch holds one unescape
// buffer per string an array element returns (see dlElem).
type jsonDec struct {
	d       []byte
	i       int
	scratch *[3][]byte
}

// recoverBail is deferred by every fast-path entry point: it turns the
// bail panic into ok = false and re-panics anything else.
func recoverBail(ok *bool) {
	if p := recover(); p != nil {
		if _, bail := p.(errBailFast); bail {
			*ok = false
			return
		}
		panic(p)
	}
}

func (d *JSONDecoder) decodeFast(data []byte, r *Record, keep FieldMask) (ok bool) {
	defer recoverBail(&ok)
	p := &jsonDec{d: data, scratch: &d.scratch}

	p.lit(`{"id":`)
	r.ID = p.uint()
	p.lit(`,"start":`)
	p.time(&r.Start)
	p.lit(`,"end":`)
	if keep&FEnd != 0 {
		p.time(&r.End)
	} else {
		p.skipStr()
	}
	p.lit(`,"hp":`)
	p.maskedStr(&r.HoneypotID, keep&FHoneypotID != 0)
	if p.tryLit(`,"hp_ip":`) {
		p.maskedStr(&r.HoneypotIP, keep&FHoneypotIP != 0)
	}
	p.lit(`,"client_ip":`)
	p.maskedStr(&r.ClientIP, keep&FClientIP != 0)
	if p.tryLit(`,"client_port":`) {
		r.ClientPort = int(p.int())
	}
	p.lit(`,"proto":`)
	r.Protocol = p.str()
	if p.tryLit(`,"client_ver":`) {
		p.maskedStr(&r.ClientVersion, keep&FClientVersion != 0)
	}
	if p.tryLit(`,"logins":[`) {
		if keep&FLogins == 0 {
			p.skipArrayTail()
		} else {
			r.Logins = p.loginsArr()
		}
	}
	if p.tryLit(`,"cmds":[`) {
		if keep&FCommands == 0 {
			p.skipArrayTail()
		} else {
			r.Commands = p.cmdsArr()
		}
	}
	if p.tryLit(`,"dls":[`) {
		if keep&FDownloads == 0 {
			p.skipArrayTail()
		} else {
			r.Downloads = p.dlsArr()
		}
	}
	if p.tryLit(`,"execs":[`) {
		if keep&FExecs == 0 {
			p.skipArrayTail()
		} else {
			r.ExecAttempts = p.execsArr()
		}
	}
	if p.tryLit(`,"state_changed":`) {
		r.StateChanged = p.bool()
	}
	if p.tryLit(`,"hashes":[`) {
		if keep&FHashes == 0 {
			p.skipArrayTail()
		} else {
			r.DroppedHashes = p.hashesArr()
		}
	}
	if p.tryLit(`,"timeout":`) {
		r.TimedOut = p.bool()
	}
	p.byte('}')
	if p.i != len(p.d) {
		p.bail()
	}
	return true
}

// The array parsers below consume a canonical field array whose opening
// '[' the caller already consumed, one element parser each. The element
// parsers are shared between the full-line fast path (decodeFast), the
// columnar fragment decode (DecodeColumns) and the fragment walkers
// (FragReader), so all three accept exactly the same bytes and see the
// same values. They return strings without allocating: the values alias
// the input or the decoder's scratch, one buffer per string an element
// holds, and are valid until the next element.

// arrayOpen reports whether the array has a first element, consuming
// the "]" of an empty one; arrayMore asks for each element after it.
func (p *jsonDec) arrayOpen() bool {
	if p.peek() == ']' {
		p.i++
		return false
	}
	return true
}

func (p *jsonDec) loginElem() (user, pass []byte, ok bool) {
	p.lit(`{"user":`)
	user = p.strBytes(&p.scratch[0])
	p.lit(`,"pass":`)
	pass = p.strBytes(&p.scratch[1])
	p.lit(`,"ok":`)
	ok = p.bool()
	p.byte('}')
	return user, pass, ok
}

func (p *jsonDec) cmdElem() (raw []byte, known bool) {
	p.lit(`{"raw":`)
	raw = p.strBytes(&p.scratch[0])
	p.lit(`,"known":`)
	known = p.bool()
	p.byte('}')
	return raw, known
}

func (p *jsonDec) dlElem() (uri, src, hash []byte, size int64) {
	p.lit(`{"uri":`)
	uri = p.strBytes(&p.scratch[0])
	if p.tryLit(`,"src_ip":`) {
		src = p.strBytes(&p.scratch[1])
	}
	if p.tryLit(`,"hash":`) {
		hash = p.strBytes(&p.scratch[2])
	}
	if p.tryLit(`,"size":`) {
		size = p.int()
	}
	p.byte('}')
	return uri, src, hash, size
}

func (p *jsonDec) loginsArr() []LoginAttempt {
	ls := []LoginAttempt{}
	for more := p.arrayOpen(); more; more = p.arrayMore() {
		user, pass, ok := p.loginElem()
		ls = append(ls, LoginAttempt{Username: string(user), Password: string(pass), Success: ok})
	}
	return ls
}

func (p *jsonDec) cmdsArr() []Command {
	cs := []Command{}
	for more := p.arrayOpen(); more; more = p.arrayMore() {
		raw, known := p.cmdElem()
		cs = append(cs, Command{Raw: string(raw), Known: known})
	}
	return cs
}

func (p *jsonDec) dlsArr() []Download {
	ds := []Download{}
	for more := p.arrayOpen(); more; more = p.arrayMore() {
		uri, src, hash, size := p.dlElem()
		ds = append(ds, Download{URI: string(uri), SourceIP: string(src), Hash: string(hash), Size: size})
	}
	return ds
}

func (p *jsonDec) execsArr() []ExecAttempt {
	es := []ExecAttempt{}
	for more := p.arrayOpen(); more; more = p.arrayMore() {
		var e ExecAttempt
		p.lit(`{"path":`)
		e.Path = p.str()
		p.lit(`,"exists":`)
		e.FileExists = p.bool()
		if p.tryLit(`,"hash":`) {
			e.Hash = p.str()
		}
		p.byte('}')
		es = append(es, e)
	}
	return es
}

func (p *jsonDec) hashesArr() []string {
	hs := []string{}
	for more := p.arrayOpen(); more; more = p.arrayMore() {
		hs = append(hs, p.str())
	}
	return hs
}

// maskedStr parses a string field, either into *dst or — when the
// field is masked out — as a no-alloc skip.
func (p *jsonDec) maskedStr(dst *string, keep bool) {
	if keep {
		*dst = p.str()
	} else {
		p.skipStr()
	}
}

// skipStr consumes a JSON string without unescaping or allocating.
// Canonical strings never hold raw control bytes, and every escape is
// either a single escaped byte or \uXXXX, so skipping the byte after
// each backslash is enough to never mistake an escaped quote for the
// terminator.
func (p *jsonDec) skipStr() {
	p.byte('"')
	i := p.i
	for i < len(p.d) {
		switch p.d[i] {
		case '\\':
			i += 2
		case '"':
			p.i = i + 1
			return
		default:
			i++
		}
	}
	p.bail()
}

// skipArrayTail consumes the remainder of an array whose opening '[' the
// caller already consumed, tracking bracket depth and skipping over
// strings so structural bytes inside them are ignored.
func (p *jsonDec) skipArrayTail() {
	depth := 1
	for p.i < len(p.d) {
		switch p.d[p.i] {
		case '[', '{':
			depth++
			p.i++
		case ']', '}':
			depth--
			p.i++
			if depth == 0 {
				return
			}
		case '"':
			p.skipStr()
		default:
			p.i++
		}
	}
	p.bail()
}

func (p *jsonDec) bail() {
	panic(errBailFast{})
}

// byte consumes exactly c.
func (p *jsonDec) byte(c byte) {
	if p.i >= len(p.d) || p.d[p.i] != c {
		p.bail()
	}
	p.i++
}

func (p *jsonDec) peek() byte {
	if p.i >= len(p.d) {
		p.bail()
	}
	return p.d[p.i]
}

// lit consumes the literal l or bails.
func (p *jsonDec) lit(l string) {
	if !p.tryLit(l) {
		p.bail()
	}
}

// tryLit consumes the literal l if it is next.
func (p *jsonDec) tryLit(l string) bool {
	if len(p.d)-p.i >= len(l) && string(p.d[p.i:p.i+len(l)]) == l {
		p.i += len(l)
		return true
	}
	return false
}

// arrayMore consumes "," (more elements) or "]" (done).
func (p *jsonDec) arrayMore() bool {
	switch p.peek() {
	case ',':
		p.i++
		return true
	case ']':
		p.i++
		return false
	}
	p.bail()
	return false
}

// uint parses a non-negative JSON integer with no float forms.
func (p *jsonDec) uint() uint64 {
	s, i := p.d, p.i
	if i >= len(s) || s[i] < '0' || s[i] > '9' {
		p.bail()
	}
	start := i
	var v uint64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		c := uint64(s[i] - '0')
		if v > (math.MaxUint64-c)/10 {
			p.bail()
		}
		v = v*10 + c
		i++
	}
	if s[start] == '0' && i-start > 1 {
		p.bail() // leading zero: not valid JSON
	}
	if i < len(s) {
		switch s[i] {
		case '.', 'e', 'E':
			p.bail() // float form: defer to the stdlib's error
		}
	}
	p.i = i
	return v
}

// int parses a signed JSON integer.
func (p *jsonDec) int() int64 {
	neg := false
	if p.peek() == '-' {
		neg = true
		p.i++
	}
	v := p.uint()
	if neg {
		if v > 1<<63 {
			p.bail()
		}
		return -int64(v)
	}
	if v > math.MaxInt64 {
		p.bail()
	}
	return int64(v)
}

func (p *jsonDec) bool() bool {
	if p.tryLit("true") {
		return true
	}
	if p.tryLit("false") {
		return false
	}
	p.bail()
	return false
}

// time parses a quoted timestamp. The UTC spelling appendTimeJSON
// writes is read directly (timeZ); any other token goes to
// time.Time.UnmarshalJSON — exactly what encoding/json does for a
// Marshaler field — so parsing semantics are the stdlib's.
func (p *jsonDec) time(t *time.Time) {
	s, i := p.d, p.i
	if i >= len(s) || s[i] != '"' {
		p.bail()
	}
	j := i + 1
	for j < len(s) && s[j] != '"' {
		if s[j] == '\\' {
			p.bail()
		}
		j++
	}
	if j >= len(s) {
		p.bail()
	}
	if z, ok := timeZ(s[i+1 : j]); ok {
		*t = z
	} else if err := t.UnmarshalJSON(s[i : j+1]); err != nil {
		p.bail()
	}
	p.i = j + 1
}

// timeZ reads "2006-01-02T15:04:05Z" with an optional fraction of one
// to nine digits, every field in range, into the time the stdlib's
// RFC 3339 parse makes of it: the same instant, in UTC. Any other
// spelling, or a field out of range, reports false for the stdlib to
// judge.
func timeZ(s []byte) (time.Time, bool) {
	const head = len("2006-01-02T15:04:05")
	if len(s) < head+1 || s[len(s)-1] != 'Z' ||
		s[4] != '-' || s[7] != '-' || s[10] != 'T' || s[13] != ':' || s[16] != ':' {
		return time.Time{}, false
	}
	ok := true
	num := func(b []byte, max int) int {
		n := 0
		for _, c := range b {
			if c < '0' || c > '9' {
				ok = false
			}
			n = 10*n + int(c-'0')
		}
		if n > max {
			ok = false
		}
		return n
	}
	year, month := num(s[0:4], 9999), num(s[5:7], 12)
	day, hour := num(s[8:10], 31), num(s[11:13], 23)
	min, sec := num(s[14:16], 59), num(s[17:19], 59)
	nsec := 0
	if frac := s[head : len(s)-1]; len(frac) > 0 {
		if frac[0] != '.' || len(frac) < 2 || len(frac) > 10 {
			return time.Time{}, false
		}
		nsec = num(frac[1:], 999999999)
		for k := len(frac); k < 10; k++ {
			nsec *= 10
		}
	}
	if !ok || month < 1 || day < 1 || day > daysIn(time.Month(month), year) {
		return time.Time{}, false
	}
	// Days since 1970-01-01 of the proleptic Gregorian date, counted in
	// 400-year eras of years that begin in March.
	y := year
	if month <= 2 {
		y--
	}
	era := (y + 400) / 400 // y >= -1, so this is floor(y/400) + 1
	yoe := y - (era-1)*400
	doy := (153*((month+9)%12)+2)/5 + day - 1
	days := (era-1)*146097 + yoe*365 + yoe/4 - yoe/100 + doy - 719468
	return time.Unix(int64(days)*86400+int64(hour*3600+min*60+sec), int64(nsec)).UTC(), true
}

// daysIn is the length of the month in the proleptic Gregorian year.
func daysIn(m time.Month, year int) int {
	if m == time.February {
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
	return 30 + int((m+m/8)&1)
}

// str parses a JSON string (see strBytes).
func (p *jsonDec) str() string { return string(p.strBytes(&p.scratch[0])) }

// strBytes parses a JSON string without allocating. A string without
// escapes, control bytes or non-ASCII is returned as a slice of the
// input; anything else is unquoted into *buf.
func (p *jsonDec) strBytes(buf *[]byte) []byte {
	p.byte('"')
	start := p.i
	for i := start; i < len(p.d); i++ {
		c := p.d[i]
		if c == '"' {
			p.i = i + 1
			return p.d[start:i]
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			return p.unquote(buf, start, i)
		}
	}
	p.bail()
	return nil
}

// unquote finishes a string that contains escapes or non-ASCII bytes,
// starting at i with s[start:i] already verified clean, into *buf. It
// mirrors encoding/json's unquote: \uXXXX with UTF-16 surrogate pairs,
// invalid UTF-8 replaced with U+FFFD, raw control bytes rejected (bail
// → stdlib error).
func (p *jsonDec) unquote(dst *[]byte, start, i int) []byte {
	buf := append((*dst)[:0], p.d[start:i]...)
	s := p.d
	for i < len(s) {
		c := s[i]
		switch {
		case c == '"':
			p.i = i + 1
			*dst = buf
			return buf
		case c == '\\':
			i++
			if i >= len(s) {
				p.bail()
			}
			switch s[i] {
			case '"', '\\', '/':
				buf = append(buf, s[i])
				i++
			case 'b':
				buf = append(buf, '\b')
				i++
			case 'f':
				buf = append(buf, '\f')
				i++
			case 'n':
				buf = append(buf, '\n')
				i++
			case 'r':
				buf = append(buf, '\r')
				i++
			case 't':
				buf = append(buf, '\t')
				i++
			case 'u':
				r1, ok := hex4(s, i+1)
				if !ok {
					p.bail()
				}
				i += 5
				if utf16.IsSurrogate(r1) {
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if r2, ok2 := hex4(s, i+2); ok2 {
							if dec := utf16.DecodeRune(r1, r2); dec != unicode.ReplacementChar {
								i += 6
								buf = utf8.AppendRune(buf, dec)
								break
							}
						}
					}
					r1 = unicode.ReplacementChar
				}
				buf = utf8.AppendRune(buf, r1)
			default:
				p.bail()
			}
		case c < 0x20:
			p.bail()
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			rr, size := utf8.DecodeRune(s[i:])
			if rr == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, utf8.RuneError)
				i++
			} else {
				buf = append(buf, s[i:i+size]...)
				i += size
			}
		}
	}
	p.bail()
	return nil
}

// hex4 parses four hex digits at s[i:].
func hex4(s []byte, i int) (rune, bool) {
	if i+4 > len(s) {
		return 0, false
	}
	var r rune
	for _, c := range s[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, false
		}
		r = r*16 + rune(c)
	}
	return r, true
}
