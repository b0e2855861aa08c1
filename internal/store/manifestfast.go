package store

import (
	"bytes"
	"encoding/base64"
	"math"
	"time"
)

// The manifest's fast-path decoder. Every Open reads every segment
// entry of the manifest, and most of a manifest's bytes are the base64
// Bloom bits, which encoding/json scans twice (validate, then decode)
// before it decodes them. decodeManifestFast accepts exactly the bytes
// manifest.save writes — the fixed key order, the omitempty fields
// present or absent, RFC 3339 times in UTC, integers in plain form,
// strings without escapes — and reports false on anything else, for
// loadManifest to hand the input to json.Unmarshal. So the result on
// the fast path is value for value json.Unmarshal's, and every error is
// the stdlib's. It is also byte for byte what json.Marshal writes for
// each segment entry, so an entry keeps its own bytes as its enc and a
// reopened store's next save marshals only the segments new to it.
// FuzzManifestDecode holds both.

// strictBase64 decodes the Bloom bits. Strict rejects the non-zero
// trailing bits the lenient decoder would drop, so an accepted string
// is the one encoding of its bytes.
var strictBase64 = base64.StdEncoding.Strict()

// manifestDec is the fast path's parser state. Every method is a no-op
// once ok is false, so the caller checks ok once, at the end.
type manifestDec struct {
	d  []byte
	i  int
	ok bool
}

// decodeManifestFast decodes data as save writes it, reporting false
// for any other input. Each segment's enc is its span of data, which
// the caller must never modify or reuse.
func decodeManifestFast(data []byte) (*manifest, bool) {
	p := &manifestDec{d: data, ok: true}
	m := &manifest{}
	p.lit(`{"version":`)
	m.Version = int(p.int())
	p.lit(`,"next_seg":`)
	m.NextSeg = int(p.int())
	p.lit(`,"next_seq":`)
	m.NextSeq = p.uint(math.MaxUint64)
	p.lit(`,"segments":[`)
	m.Segments = []*segmentMeta{}
	for more := p.arrayOpen(); more; more = p.arrayMore() {
		m.Segments = append(m.Segments, p.segment())
	}
	p.lit("}")
	p.tryLit("\n")
	if !p.ok || p.i != len(p.d) {
		return nil, false
	}
	return m, true
}

func (p *manifestDec) segment() *segmentMeta {
	sm := &segmentMeta{}
	start := p.i
	p.lit(`{"file":`)
	sm.File = p.str()
	p.lit(`,"month":`)
	sm.Month = p.str()
	p.lit(`,"min_time":`)
	sm.MinTime = p.time()
	p.lit(`,"max_time":`)
	sm.MaxTime = p.time()
	p.lit(`,"min_seq":`)
	sm.MinSeq = p.uint(math.MaxUint64)
	p.lit(`,"max_seq":`)
	sm.MaxSeq = p.uint(math.MaxUint64)
	p.lit(`,"records":`)
	sm.Records = int(p.int())
	p.lit(`,"kinds":[`)
	for k := range sm.Kinds {
		if k > 0 {
			p.lit(",")
		}
		sm.Kinds[k] = int(p.int())
	}
	p.lit(`],"ssh":`)
	sm.SSH = int(p.int())
	p.lit(`,"telnet":`)
	sm.Telnet = int(p.int())
	p.lit(`,"raw_bytes":`)
	sm.RawBytes = p.int()
	p.lit(`,"comp_bytes":`)
	sm.CompBytes = p.int()
	if p.tryLit(`,"codec":`) {
		sm.Codec = p.str()
		p.require(sm.Codec != "")
	}
	p.lit(`,"bloom":`)
	if !p.tryLit("null") {
		sm.Bloom = p.bloom()
	}
	p.lit(`,"blocks":`)
	if !p.tryLit("null") {
		p.lit("[")
		sm.Blocks = []blockMeta{}
		for more := p.arrayOpen(); more; more = p.arrayMore() {
			sm.Blocks = append(sm.Blocks, p.block())
		}
	}
	p.lit("}")
	if p.ok {
		sm.enc = p.d[start:p.i:p.i]
	}
	return sm
}

func (p *manifestDec) bloom() *Bloom {
	b := &Bloom{}
	p.lit(`{"m":`)
	b.M = p.uint(math.MaxUint64)
	p.lit(`,"k":`)
	b.K = int(p.int())
	if p.tryLit(`,"v":`) {
		b.V = int(p.int())
		p.require(b.V != 0)
	}
	p.lit(`,"bits":"`)
	if !p.ok {
		return nil
	}
	// Base64 holds neither a quote nor a backslash, and the decoder
	// rejects every byte outside its alphabet but CR and LF, which it
	// skips and a JSON string cannot hold raw.
	end := bytes.IndexByte(p.d[p.i:], '"')
	if end < 0 {
		p.ok = false
		return nil
	}
	src := p.d[p.i : p.i+end]
	b.Bits = make([]byte, strictBase64.DecodedLen(len(src)))
	n, err := strictBase64.Decode(b.Bits, src)
	if err != nil || bytes.IndexByte(src, '\n') >= 0 || bytes.IndexByte(src, '\r') >= 0 {
		p.ok = false
		return nil
	}
	b.Bits = b.Bits[:n]
	p.i += end + 1
	p.lit("}")
	return b
}

func (p *manifestDec) block() blockMeta {
	var b blockMeta
	p.lit(`{"off":`)
	b.Off = p.int()
	p.lit(`,"clen":`)
	b.CLen = int(p.int())
	p.lit(`,"ulen":`)
	b.ULen = int(p.int())
	p.lit(`,"count":`)
	b.Count = int(p.int())
	p.lit(`,"crc":`)
	b.CRC = uint32(p.uint(math.MaxUint32))
	if p.tryLit(`,"dlen":`) {
		b.DirLen = int(p.int())
		p.require(b.DirLen != 0)
	}
	p.lit("}")
	return b
}

// require fails the parse unless ok: an omitempty field present with its
// zero value, which json.Marshal would have left out, or a "-0".
func (p *manifestDec) require(ok bool) {
	if !ok {
		p.ok = false
	}
}

// tryLit consumes the literal l if it is next.
func (p *manifestDec) tryLit(l string) bool {
	if p.ok && len(p.d)-p.i >= len(l) && string(p.d[p.i:p.i+len(l)]) == l {
		p.i += len(l)
		return true
	}
	return false
}

// lit consumes the literal l or fails.
func (p *manifestDec) lit(l string) {
	if !p.tryLit(l) {
		p.ok = false
	}
}

// arrayOpen reports whether an array whose "[" is consumed has a first
// element, consuming the "]" of an empty one; arrayMore consumes the
// "," before each further element or the closing "]".
func (p *manifestDec) arrayOpen() bool { return p.ok && !p.tryLit("]") }

func (p *manifestDec) arrayMore() bool {
	if p.tryLit(",") {
		return true
	}
	p.lit("]")
	return false
}

// uint parses a non-negative integer of at most max with no leading
// zero. A fraction or exponent after it fails the literal that follows.
func (p *manifestDec) uint(max uint64) uint64 {
	start := p.i
	var v uint64
	for p.ok && p.i < len(p.d) && '0' <= p.d[p.i] && p.d[p.i] <= '9' {
		c := uint64(p.d[p.i] - '0')
		if v > (max-c)/10 {
			p.ok = false
		}
		v = v*10 + c
		p.i++
	}
	if n := p.i - start; n == 0 || n > 1 && p.d[start] == '0' {
		p.ok = false
	}
	return v
}

// int parses an integer in the int64 range, with no "-0".
func (p *manifestDec) int() int64 {
	if p.tryLit("-") {
		v := p.uint(1 << 63)
		p.require(v != 0)
		return -int64(v)
	}
	return int64(p.uint(math.MaxInt64))
}

// str parses a string of printable ASCII without escapes, and without
// the <, > and & that json.Marshal writes escaped.
func (p *manifestDec) str() string { return string(p.strBytes()) }

// strBytes is str without the copy: the string's bytes in the input.
func (p *manifestDec) strBytes() []byte {
	p.lit(`"`)
	start := p.i
	for p.ok && p.i < len(p.d) {
		switch c := p.d[p.i]; {
		case c == '"':
			p.i++
			return p.d[start : p.i-1]
		case c < 0x20 || c >= 0x7f || c == '\\' || c == '<' || c == '>' || c == '&':
			p.ok = false
		default:
			p.i++
		}
	}
	p.ok = false
	return nil
}

// time parses a quoted UTC RFC 3339 time through time.Time's own
// UnmarshalJSON, which is what encoding/json calls for the field, and
// accepts it only in the form MarshalJSON writes: whole seconds, or a
// "." fraction with no trailing zero.
func (p *manifestDec) time() time.Time {
	var t time.Time
	start := p.i
	s := p.strBytes()
	if !p.ok || len(s) == 0 || s[len(s)-1] != 'Z' || t.UnmarshalJSON(p.d[start:p.i]) != nil {
		p.ok = false
		return t
	}
	const whole = len("2006-01-02T15:04:05Z")
	if len(s) != whole && (len(s) < whole || s[whole-1] != '.' || s[len(s)-2] == '0') {
		p.ok = false
	}
	return t
}
