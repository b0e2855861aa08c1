package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Segment file layout: an 8-byte magic followed by back-to-back blocks,
// with the block index (offsets, lengths, counts, CRCs) in the manifest,
// so a reader never parses a segment blind. The magic's version digit
// names the layout and the manifest's per-segment codec field must agree
// with it. Seals write '3', the columnar layout (columnar.go). '1' and
// '2' are the row layouts older stores sealed — each block one compressed
// run of uvarint(seq), uvarint(len), record JSON entries, DEFLATE for
// '1' and the in-tree LZ codec for '2' — and are read in place, never
// written; testdata/legacy holds one segment of each. Segments are
// immutable once the manifest references them.

var (
	segMagicV1 = [8]byte{'H', 'N', 'S', 'T', 'O', 'R', 'E', '1'}
	segMagicV2 = [8]byte{'H', 'N', 'S', 'T', 'O', 'R', 'E', '2'}
	segMagicV3 = [8]byte{'H', 'N', 'S', 'T', 'O', 'R', 'E', '3'}
)

// segReader streams one segment's records in sequence order, whatever
// the segment's layout: blockReader for the row formats (v1/v2),
// colReader for columnar v3. Lines alias reader scratch — valid until
// the next call.
type segReader interface {
	next() (seq uint64, line []byte, err error)
	close() error
	setStats(*PlanStats)
}

// segFileName names segment n.
func segFileName(n int) string { return fmt.Sprintf("seg-%06d.hns", n) }

// blockBufPool recycles block scratch buffers (compressed and payload)
// across readers, so a scan over many segments allocates a bounded
// working set instead of two buffers per segment.
var blockBufPool = sync.Pool{New: func() any { return new([]byte) }}

// blockReader streams one segment's records block by block: one
// compressed block and one uncompressed payload are resident at a time,
// so peak memory is bounded by the block size, not the segment (let
// alone the dataset). Buffers are pooled and returned on close.
type blockReader struct {
	s     *Store     // counters; may be nil in tests
	stats *PlanStats // per-query plan stats; may be nil
	f     *os.File
	meta  *segmentMeta
	bi    int // next block index

	codec   blockCodec
	comp    *[]byte // pooled scratch: compressed block
	payload *[]byte // pooled scratch: current uncompressed payload
	buf     []byte  // current payload bytes (aliases *payload)
	poff    int     // parse offset into buf
	left    int     // records left in current payload
}

// openSegment opens seg for reading under the store's directory,
// dispatching on the segment's layout. The block codec comes from the
// segment's manifest entry; the file magic must agree with it.
func (s *Store) openSegment(meta *segmentMeta) (segReader, error) {
	if meta.Codec == codecV3 {
		return s.openColReader(meta)
	}
	return s.openRowSegment(meta)
}

// openRowSegment opens a v1/v2 row-layout segment.
func (s *Store) openRowSegment(meta *segmentMeta) (*blockReader, error) {
	f, err := os.Open(filepath.Join(s.dir, meta.File))
	if err != nil {
		return nil, err
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || magic != segmentMagic(meta.Codec) {
		f.Close()
		return nil, fmt.Errorf("store: %s: bad segment magic", meta.File)
	}
	codec, err := newBlockCodec(meta.Codec)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &blockReader{s: s, f: f, meta: meta, codec: codec}, nil
}

// setStats attaches per-query plan stats.
func (br *blockReader) setStats(ps *PlanStats) { br.stats = ps }

// next returns the next (seq, record JSON) entry, loading blocks as
// needed. It returns io.EOF after the last record. The returned line
// aliases the reader's scratch buffer: it is valid until the next call.
func (br *blockReader) next() (seq uint64, line []byte, err error) {
	for br.left == 0 {
		if br.bi >= len(br.meta.Blocks) {
			return 0, nil, io.EOF
		}
		if err := br.loadBlock(br.meta.Blocks[br.bi]); err != nil {
			return 0, nil, err
		}
		br.bi++
	}
	seq, n := binary.Uvarint(br.buf[br.poff:])
	if n <= 0 {
		return 0, nil, fmt.Errorf("store: %s: corrupt entry header", br.meta.File)
	}
	br.poff += n
	ln, n := binary.Uvarint(br.buf[br.poff:])
	if n <= 0 || ln > uint64(len(br.buf)-br.poff-n) {
		return 0, nil, fmt.Errorf("store: %s: corrupt entry length", br.meta.File)
	}
	br.poff += n
	line = br.buf[br.poff : br.poff+int(ln)]
	br.poff += int(ln)
	br.left--
	return seq, line, nil
}

// grow returns *bp resized to n bytes, reallocating if needed.
func grow(bp *[]byte, n int) []byte {
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return (*bp)[:n]
}

// loadBlock reads, verifies, and decompresses one block into the
// pooled payload buffer.
func (br *blockReader) loadBlock(b blockMeta) error {
	if br.comp == nil {
		br.comp = blockBufPool.Get().(*[]byte)
		br.payload = blockBufPool.Get().(*[]byte)
		poolGets.Add(2)
	}
	comp := grow(br.comp, b.CLen)
	if _, err := br.f.ReadAt(comp, b.Off); err != nil {
		return fmt.Errorf("store: %s: block %d: read: %w", br.meta.File, br.bi, err)
	}
	if crc := crc32.ChecksumIEEE(comp); crc != b.CRC {
		return fmt.Errorf("store: %s: block %d at offset %d: CRC mismatch", br.meta.File, br.bi, b.Off)
	}
	br.buf = grow(br.payload, b.ULen)
	if err := br.codec.decompress(br.buf, comp); err != nil {
		return fmt.Errorf("store: %s: block %d: decompress: %w", br.meta.File, br.bi, err)
	}
	br.poff = 0
	br.left = b.Count
	if br.s != nil {
		br.s.blocksRead.Add(1)
	}
	if br.stats != nil {
		br.stats.BlocksRead++
	}
	return nil
}

// close releases the segment file and returns scratch to the pool.
func (br *blockReader) close() error {
	if br.comp != nil {
		blockBufPool.Put(br.comp)
		blockBufPool.Put(br.payload)
		poolPuts.Add(2)
		br.comp, br.payload, br.buf = nil, nil, nil
	}
	return br.f.Close()
}
