package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Segment file layout: an 8-byte magic, back-to-back blocks, and a
// footer with the segment's index, so the manifest only lists it:
//
//	body    uvarint m, k, v, len(bits), the Bloom bits over client IPs;
//	        uvarint block count, per block uvarint off, clen, ulen,
//	        count, crc, dlen
//	trailer uint32 body length, uint32 CRC-32 of the body (both little
//	        endian), footerMagic
//
// Every reader knows one layout, HNSTORE3, the columnar one every seal
// writes (columnar.go); entries sealed before segments had footers hold
// the index inline in the manifest. HNSTORE1 and HNSTORE2 are row
// layouts only compaction (compact.go) reads, to rewrite them as
// HNSTORE3 on a read-write open. Segments are immutable once the
// manifest references them; the migration replaces legacy ones whole.

var (
	segMagicV3  = [8]byte{'H', 'N', 'S', 'T', 'O', 'R', 'E', '3'}
	footerMagic = [8]byte{'H', 'N', 'S', 'I', 'N', 'D', 'E', 'X'}
)

const trailerLen = 16 // body length, CRC, footerMagic

// segFileName names segment n.
func segFileName(n int) string { return fmt.Sprintf("seg-%06d.hns", n) }

// appendFooter appends ix's footer, trailer included, to dst.
func appendFooter(dst []byte, ix *segIndex) []byte {
	start := len(dst)
	b := ix.bloom
	for _, v := range [...]uint64{b.M, uint64(b.K), uint64(b.V), uint64(len(b.Bits))} {
		dst = binary.AppendUvarint(dst, v)
	}
	dst = append(dst, b.Bits...)
	dst = binary.AppendUvarint(dst, uint64(len(ix.blocks)))
	for _, bm := range ix.blocks {
		for _, v := range [...]uint64{uint64(bm.Off), uint64(bm.CLen), uint64(bm.ULen), uint64(bm.Count), uint64(bm.CRC), uint64(bm.DirLen)} {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	body := dst[start:]
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(body))
	return append(dst, footerMagic[:]...)
}

// parseFooter decodes the index in tail, a segment's bytes after its
// last block: the footer and its trailer, nothing more. Nothing it
// allocates is larger than a small multiple of len(tail).
func parseFooter(tail []byte) (*segIndex, error) {
	if len(tail) < trailerLen || !bytes.Equal(tail[len(tail)-len(footerMagic):], footerMagic[:]) {
		return nil, errors.New("no footer magic at the end of the file")
	}
	body, trailer := tail[:len(tail)-trailerLen], tail[len(tail)-trailerLen:]
	if n := binary.LittleEndian.Uint32(trailer); uint64(n) != uint64(len(body)) {
		return nil, fmt.Errorf("length %d, but %d bytes follow the blocks", n, len(body))
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer[4:]) {
		return nil, errors.New("CRC mismatch")
	}
	r := &byteReader{b: body}
	b := &Bloom{M: r.uvarint(), K: int(r.uvarint()), V: int(r.uvarint())}
	b.Bits = r.bytes(int(r.uvarint()))
	nb := r.uvarint()
	if r.err || nb > uint64(len(body)-r.i)/6 { // six uvarints, a byte at least each
		return nil, errors.New("corrupt Bloom filter or block count")
	}
	ix := &segIndex{bloom: b, blocks: make([]blockMeta, nb)}
	for i := range ix.blocks {
		ix.blocks[i] = blockMeta{Off: int64(r.uvarint()), CLen: int(r.uvarint()), ULen: int(r.uvarint()),
			Count: int(r.uvarint()), CRC: uint32(r.uvarint()), DirLen: int(r.uvarint())}
	}
	if r.err || r.i != len(body) {
		return nil, errors.New("corrupt block index")
	}
	return ix, nil
}

// readFooter reads and checks the index in f, sm's segment file: what
// follows its blocks, which end CompBytes past the magic.
func readFooter(f *os.File, sm *segmentMeta) (*segIndex, error) {
	end := int64(len(segMagicV3)) + sm.CompBytes
	fi, err := f.Stat()
	if err == nil && (sm.CompBytes < 0 || sm.CompBytes > fi.Size()-int64(len(segMagicV3))) {
		err = fmt.Errorf("comp_bytes %d past the %d-byte file", sm.CompBytes, fi.Size())
	}
	var ix *segIndex
	if err == nil {
		tail := make([]byte, fi.Size()-end) // what is on disk, not what a field claims
		if _, err = f.ReadAt(tail, end); err == nil {
			if ix, err = parseFooter(tail); err == nil {
				err = ix.check(sm, end)
			}
		}
	}
	if err != nil {
		return nil, &CorruptError{sm.File, -1, fmt.Errorf("footer: %w", err)}
	}
	return ix, nil
}

// CorruptError reports segment bytes that fail verification or decoding:
// a CRC mismatch, a malformed footer, directory, stripe or row entry, a
// short read. Block is the block's index in File, or -1 for the footer.
type CorruptError struct {
	File  string
	Block int
	Err   error
}

func (e *CorruptError) Error() string {
	if e.Block < 0 {
		return fmt.Sprintf("store: %s: %v", e.File, e.Err)
	}
	return fmt.Sprintf("store: %s: block %d: %v", e.File, e.Block, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// grow returns *bp resized to n bytes, reallocating if needed.
func grow(bp *[]byte, n int) []byte {
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return (*bp)[:n]
}
