package store

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// codecV3 is the manifest codec tag of HNSTORE3, the one layout written.
const codecV3 = "v3"

// lzCodec compresses v3 stripes and decodes them (and, for compaction,
// HNSTORE2 row blocks). Format, LZ4-flavoured: a stream of sequences,
// each a token byte (high nibble literal length, low nibble match
// length − 4, 15 meaning "extended by following bytes: +255 per 0xFF
// byte, terminated by a byte < 0xFF"), the literals, then a 2-byte
// little-endian back-reference offset (1..65535) and any extended match
// length. The final sequence is literals only (the stream ends after
// them). Integrity is covered by the CRCs the manifest and block
// directory already store, so the frame carries no checksum of its own.
type lzCodec struct {
	// table holds biased positions: pos + 1 + off at store time. The
	// bias advances by the input length after every block, so an entry
	// left over from an earlier block always resolves to a negative
	// candidate and is rejected without clearing 64 KiB per block.
	table [1 << lzHashLog]int32
	off   int32
}

const (
	lzHashLog   = 14
	lzHashShift = 32 - lzHashLog
	lzMinMatch  = 4
	lzWindow    = 65535
	// lzTailLits: matches never cover the last bytes of the input, so
	// the tail is always emitted as literals and 4-byte loads inside
	// the match loop stay in bounds.
	lzTailLits = 5
	lzMarginIn = 12
)

// lzMaxExpand bounds how far an LZ stream can expand: a length
// extension byte, the densest thing in the format, stands for at most
// 255 output bytes.
const lzMaxExpand = 255

func lzHash(u uint32) int { return int((u * 2654435761) >> lzHashShift) }

var errLZCorrupt = errors.New("store: lz block corrupt")

// compress appends src's compressed form to dst.
func (c *lzCodec) compress(dst, src []byte) []byte {
	n := len(src)
	if n == 0 {
		return dst
	}
	if int64(c.off)+int64(n)+1 > 1<<31-1 {
		clear(c.table[:])
		c.off = 0
	}
	off32 := int(c.off)
	var s, anchor int
	limit := n - lzMarginIn
	for s < limit {
		u := binary.LittleEndian.Uint32(src[s:])
		h := lzHash(u)
		cand := int(c.table[h]) - 1 - off32
		c.table[h] = int32(s + 1 + off32)
		if cand < 0 || s-cand > lzWindow || binary.LittleEndian.Uint32(src[cand:]) != u {
			// No match: skip ahead, accelerating through
			// incompressible runs.
			s += 1 + (s-anchor)>>6
			continue
		}
		// Extend the match backward over pending literals, then
		// forward, leaving the final lzTailLits bytes as literals.
		for s > anchor && cand > 0 && src[s-1] == src[cand-1] {
			s--
			cand--
		}
		mEnd, cEnd, maxEnd := s+lzMinMatch, cand+lzMinMatch, n-lzTailLits
		for mEnd+8 <= maxEnd {
			x := binary.LittleEndian.Uint64(src[mEnd:]) ^ binary.LittleEndian.Uint64(src[cEnd:])
			if x != 0 {
				mEnd += bits.TrailingZeros64(x) >> 3
				goto extended
			}
			mEnd += 8
			cEnd += 8
		}
		for mEnd < maxEnd && src[mEnd] == src[cEnd] {
			mEnd++
			cEnd++
		}
	extended:
		litLen, ml := s-anchor, mEnd-s-lzMinMatch
		token := byte(0x0F)
		if ml < 15 {
			token = byte(ml)
		}
		if litLen < 15 {
			token |= byte(litLen) << 4
		} else {
			token |= 0xF0
		}
		dst = append(dst, token)
		if litLen >= 15 {
			dst = appendLZLen(dst, litLen-15)
		}
		dst = append(dst, src[anchor:s]...)
		off := s - cand
		dst = append(dst, byte(off), byte(off>>8))
		if ml >= 15 {
			dst = appendLZLen(dst, ml-15)
		}
		s = mEnd
		anchor = s
	}
	c.off += int32(n)
	// Final sequence: the remaining bytes as literals, no offset.
	litLen := n - anchor
	if litLen < 15 {
		dst = append(dst, byte(litLen)<<4)
	} else {
		dst = append(dst, 0xF0)
		dst = appendLZLen(dst, litLen-15)
	}
	return append(dst, src[anchor:]...)
}

// appendLZLen emits an extended length: v in 0xFF-saturated bytes.
func appendLZLen(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// decompress is fully bounds-checked: arbitrary src bytes produce an
// error, never a panic or out-of-bounds access (FuzzBlockCodec pins
// this).
func (c *lzCodec) decompress(dst, src []byte) error {
	di, si, sn, dn := 0, 0, len(src), len(dst)
	for si < sn {
		token := int(src[si])
		si++
		litLen := token >> 4
		if litLen == 15 {
			for {
				if si >= sn {
					return errLZCorrupt
				}
				b := int(src[si])
				si++
				litLen += b
				if b != 255 {
					break
				}
			}
		}
		if litLen > 0 {
			if litLen > sn-si || litLen > dn-di {
				return errLZCorrupt
			}
			copy(dst[di:], src[si:si+litLen])
			si += litLen
			di += litLen
		}
		if si == sn {
			break // final sequence: literals only
		}
		if sn-si < 2 {
			return errLZCorrupt
		}
		off := int(src[si]) | int(src[si+1])<<8
		si += 2
		if off == 0 || off > di {
			return errLZCorrupt
		}
		ml := token & 0x0F
		if ml == 15 {
			for {
				if si >= sn {
					return errLZCorrupt
				}
				b := int(src[si])
				si++
				ml += b
				if b != 255 {
					break
				}
			}
		}
		ml += lzMinMatch
		if ml > dn-di {
			return errLZCorrupt
		}
		ref := di - off
		if off >= ml {
			copy(dst[di:di+ml], dst[ref:ref+ml])
			di += ml
		} else {
			// Overlapping copy: replicate the period, doubling the
			// non-overlapping span each pass instead of going byte by
			// byte (long runs of a short pattern are common in JSONL).
			for ml > 0 {
				chunk := di - ref
				if chunk > ml {
					chunk = ml
				}
				copy(dst[di:di+chunk], dst[ref:ref+chunk])
				di += chunk
				ml -= chunk
			}
		}
	}
	if di != dn {
		return errLZCorrupt
	}
	return nil
}
