package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"honeynet/internal/parallel"
	"honeynet/internal/session"
)

// v3 columnar segments: the format every seal writes. A block's records
// are stored shredded: each record's canonical JSON line is split into
// per-field fragments (session.ShredJSON) and like fragments are stored
// together in per-field column stripes, each LZ-compressed on its own.
// The block opens with an uncompressed directory — row count, min/max
// start-time zone map, kind/protocol presence masks, and per-stripe
// (clen, ulen, crc) — so a reader addresses exactly the stripes a
// query's field mask needs and never touches the rest, at the byte
// level. Three stripes are not field columns:
//
//	seq   — delta-uvarint global append sequences
//	meta  — delta-varint start times (when int64-nanosecond safe),
//	        one kind byte per row, and dictionary-coded protocols;
//	        valid for every row, shredded or not
//	raw   — whole lines for rows ShredJSON rejected (non-canonical
//	        WAL recoveries); such rows are absent from every field
//	        stripe and decode through the stdlib fallback
//
// The directory's CRC lives in the segment's footer (blockMeta.CRC) and
// each stripe's CRC lives in the directory, so corruption is detected
// before any decompression. The manifest entry records Codec: "v3" and
// the file carries the HNSTORE3 magic.

// Stripe indices inside a v3 block.
const (
	stripeSeq  = 0
	stripeMeta = 1
	stripeRaw  = 2
	// stripeField0 + session.Col* is the stripe of one field column.
	stripeField0 = 3
	numStripes   = stripeField0 + session.NumColumns
)

// tnanoSafe reports whether every instant of the year can round-trip
// through int64 nanoseconds (the meta stripe's time encoding). Rows
// outside the window fall back to "zone map unknown".
func tnanoSafe(year int) bool { return year >= 1700 && year <= 2200 }

// protoMaskBit maps a protocol string to its presence-mask bit.
func protoMaskBit(proto string) byte {
	switch proto {
	case session.ProtoSSH:
		return 1
	case session.ProtoTelnet:
		return 2
	}
	return protoOther
}

// colBuf accumulates one column's fragments for the block being built:
// concatenated bytes plus one length per row (0 = absent).
type colBuf struct {
	data []byte
	lens []uint32
}

func (cb *colBuf) reset() {
	cb.data = cb.data[:0]
	cb.lens = cb.lens[:0]
}

func (cb *colBuf) add(frag []byte) {
	cb.data = append(cb.data, frag...)
	cb.lens = append(cb.lens, uint32(len(frag)))
}

func (cb *colBuf) skip() { cb.lens = append(cb.lens, 0) }

// colWriter is the seal-scratch block builder for v3 segments: rows
// accumulate shredded until the block fills, then encode flushes them
// as stripes. Reused across blocks, segments, and seals.
type colWriter struct {
	seqs      []uint64
	tnanos    []int64
	tnOK      bool
	kinds     []byte
	protos    []uint32
	dict      []string
	dictIdx   map[string]uint32
	kindMask  byte
	protoMask byte
	plain     session.ColumnSet
	cols      [session.NumColumns]colBuf
	raw       colBuf
	bytes     int // sum of line lengths: the block-split trigger
	shred     session.Columns
}

// plainTracked are the string columns whose all-plain verdict the
// writer records in the block directory: a set bit asserts every
// present fragment is a plain quoted ASCII string (no escapes, no
// embedded quotes), licensing the scan to slice values straight out of
// the stripe instead of parsing and allocating per row.
const plainTracked = session.ColumnSet(1) << session.ColClientIP

// plainStrFrag reports whether one fragment is such a plain string.
func plainStrFrag(b []byte) bool {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return false
	}
	for _, c := range b[1 : len(b)-1] {
		if c == '"' || c == '\\' || c < 0x20 || c >= 0x80 {
			return false
		}
	}
	return true
}

func (w *colWriter) rows() int { return len(w.seqs) }

func (w *colWriter) reset() {
	w.seqs = w.seqs[:0]
	w.tnanos = w.tnanos[:0]
	w.tnOK = true
	w.kinds = w.kinds[:0]
	w.protos = w.protos[:0]
	w.dict = w.dict[:0]
	for k := range w.dictIdx {
		delete(w.dictIdx, k)
	}
	w.kindMask, w.protoMask = 0, 0
	w.plain = plainTracked
	for c := range w.cols {
		w.cols[c].reset()
	}
	w.raw.reset()
	w.bytes = 0
}

// add appends one record's row to the open block.
func (w *colWriter) add(r *session.Record, line []byte, seq uint64) {
	if w.dictIdx == nil {
		w.dictIdx = map[string]uint32{}
	}
	w.seqs = append(w.seqs, seq)
	w.tnanos = append(w.tnanos, r.Start.UnixNano())
	if !tnanoSafe(r.Start.Year()) {
		w.tnOK = false
	}
	k := r.Kind()
	w.kinds = append(w.kinds, byte(k))
	w.kindMask |= 1 << uint(k)
	w.protoMask |= protoMaskBit(r.Protocol)
	di, ok := w.dictIdx[r.Protocol]
	if !ok {
		di = uint32(len(w.dict))
		w.dict = append(w.dict, r.Protocol)
		w.dictIdx[r.Protocol] = di
	}
	w.protos = append(w.protos, di)

	if session.ShredJSON(line, &w.shred) {
		for c := 0; c < session.NumColumns; c++ {
			if w.shred[c] == nil {
				w.cols[c].skip()
			} else {
				w.cols[c].add(w.shred[c])
			}
		}
		if w.plain.Has(session.ColClientIP) {
			if f := w.shred[session.ColClientIP]; f != nil && !plainStrFrag(f) {
				w.plain &^= 1 << uint(session.ColClientIP)
			}
		}
		w.raw.skip()
	} else {
		for c := 0; c < session.NumColumns; c++ {
			w.cols[c].skip()
		}
		w.raw.add(line)
	}
	w.bytes += len(line)
}

// stripeSpan locates one stripe's uncompressed bytes in the seal arena.
type stripeSpan struct {
	off, len int
}

// colBlockEnc is one encoded-but-not-yet-compressed block.
type colBlockEnc struct {
	spans      [numStripes]stripeSpan
	count      int
	tnOK       bool
	minT, maxT int64
	kindMask   byte
	protoMask  byte
	plain      session.ColumnSet
}

// encode flushes the open block's rows as stripes appended to arena and
// resets the writer for the next block.
func (w *colWriter) encode(arena []byte) ([]byte, colBlockEnc) {
	be := colBlockEnc{
		count:     w.rows(),
		tnOK:      w.tnOK,
		kindMask:  w.kindMask,
		protoMask: w.protoMask,
		plain:     w.plain & plainTracked,
	}
	if w.tnOK {
		be.minT, be.maxT = w.tnanos[0], w.tnanos[0]
		for _, t := range w.tnanos[1:] {
			if t < be.minT {
				be.minT = t
			}
			if t > be.maxT {
				be.maxT = t
			}
		}
	}
	span := func(st int, enc func([]byte) []byte) {
		off := len(arena)
		arena = enc(arena)
		be.spans[st] = stripeSpan{off, len(arena) - off}
	}
	span(stripeSeq, w.encodeSeqs)
	span(stripeMeta, w.encodeMeta)
	if len(w.raw.data) > 0 {
		span(stripeRaw, func(b []byte) []byte { return encodeColStripe(b, &w.raw) })
	}
	for c := 0; c < session.NumColumns; c++ {
		cb := &w.cols[c]
		if len(cb.data) == 0 {
			continue // no row has the field: zero-length stripe
		}
		st := stripeField0 + c
		span(st, func(b []byte) []byte { return encodeColStripe(b, cb) })
	}
	w.reset()
	return arena, be
}

// encodeSeqs writes the sequence stripe: first value absolute, then
// deltas (sequences ascend within a block).
func (w *colWriter) encodeSeqs(dst []byte) []byte {
	prev := uint64(0)
	for i, s := range w.seqs {
		if i == 0 {
			dst = binary.AppendUvarint(dst, s)
		} else {
			dst = binary.AppendUvarint(dst, s-prev)
		}
		prev = s
	}
	return dst
}

// encodeMeta writes the sidecar stripe: flags, delta-varint start times
// (only when every row is int64-nanosecond safe), kind bytes, protocol
// dictionary indices, then the dictionary.
func (w *colWriter) encodeMeta(dst []byte) []byte {
	var flags byte
	if w.tnOK {
		flags |= 1
	}
	dst = append(dst, flags)
	if w.tnOK {
		prev := int64(0)
		for i, t := range w.tnanos {
			if i == 0 {
				dst = binary.AppendVarint(dst, t)
			} else {
				dst = binary.AppendVarint(dst, t-prev)
			}
			prev = t
		}
	}
	dst = append(dst, w.kinds...)
	for _, p := range w.protos {
		dst = binary.AppendUvarint(dst, uint64(p))
	}
	dst = binary.AppendUvarint(dst, uint64(len(w.dict)))
	for _, s := range w.dict {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// encodeColStripe writes one column stripe: presence bitmap, one
// uvarint length per present row, then the concatenated fragments.
func encodeColStripe(dst []byte, cb *colBuf) []byte {
	rows := len(cb.lens)
	off := len(dst)
	dst = append(dst, make([]byte, (rows+7)/8)...)
	bm := dst[off:]
	for i, l := range cb.lens {
		if l > 0 {
			bm[i>>3] |= 1 << uint(i&7)
		}
	}
	for _, l := range cb.lens {
		if l > 0 {
			dst = binary.AppendUvarint(dst, uint64(l))
		}
	}
	return append(dst, cb.data...)
}

// encodeColDir writes a block's directory.
func encodeColDir(dst []byte, be *colBlockEnc, clens [numStripes]int, crcs [numStripes]uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(be.count))
	var flags byte
	if be.tnOK {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, be.minT)
	dst = binary.AppendVarint(dst, be.maxT)
	dst = append(dst, be.kindMask, be.protoMask)
	dst = binary.AppendUvarint(dst, uint64(be.plain))
	dst = binary.AppendUvarint(dst, numStripes)
	for st := 0; st < numStripes; st++ {
		dst = binary.AppendUvarint(dst, uint64(clens[st]))
		dst = binary.AppendUvarint(dst, uint64(be.spans[st].len))
		dst = binary.AppendUvarint(dst, uint64(crcs[st]))
	}
	return dst
}

// writeSegment writes one month's records, with their lines and
// ascending global append sequences, into a new segment file and
// returns its metadata; a seal and a compaction both write through it.
// The lines are shredded as they are, no re-marshal, and the
// per-segment aggregates fold in the same pass; stripes then compress
// in parallel across SealWorkers, one (block, stripe) pair per job. The
// footer follows the last block, and the file is fsynced before return;
// the caller commits it via the manifest.
func (s *Store) writeSegment(file string, recs []*session.Record, lines [][]byte, seqs []uint64) (*segmentMeta, error) {
	meta := &segmentMeta{
		File:   file,
		Month:  recs[0].Month().Format(monthLayout),
		MinSeq: seqs[0],
		MaxSeq: seqs[len(seqs)-1],
		Codec:  codecV3,
	}
	ix := &segIndex{bloom: newBloom(len(recs))}
	if s.sealCol == nil {
		s.sealCol = &colWriter{}
	}
	cw := s.sealCol
	cw.reset()
	blockBytes := s.opts.blockBytes()
	arena := s.sealFrames[:0]
	defer func() { s.sealFrames = arena[:0] }()
	var blocks []colBlockEnc
	for i, r := range recs {
		cw.add(r, lines[i], seqs[i])

		meta.Records++
		meta.Kinds[r.Kind()]++
		switch r.Protocol {
		case session.ProtoSSH:
			meta.SSH++
		case session.ProtoTelnet:
			meta.Telnet++
		}
		ix.bloom.Add(r.ClientIP)
		if meta.MinTime.IsZero() || r.Start.Before(meta.MinTime) {
			meta.MinTime = r.Start
		}
		if r.Start.After(meta.MaxTime) {
			meta.MaxTime = r.Start
		}

		if cw.bytes >= blockBytes {
			var be colBlockEnc
			arena, be = cw.encode(arena)
			blocks = append(blocks, be)
		}
	}
	if cw.rows() > 0 {
		var be colBlockEnc
		arena, be = cw.encode(arena)
		blocks = append(blocks, be)
	}

	// Flatten the non-empty (block, stripe) pairs into one job list and
	// compress them in parallel, reusing the seal codec and output caches.
	type job struct{ bi, st int }
	var jobs []job
	for bi := range blocks {
		for st := 0; st < numStripes; st++ {
			if blocks[bi].spans[st].len > 0 {
				jobs = append(jobs, job{bi, st})
			}
		}
	}
	workers := s.sealWorkers(len(jobs))
	for len(s.sealCodecs) < workers {
		s.sealCodecs = append(s.sealCodecs, &lzCodec{})
	}
	for len(s.sealComps) < len(jobs) {
		s.sealComps = append(s.sealComps, nil)
	}
	comps := s.sealComps[:len(jobs)]
	crcs := make([]uint32, len(jobs))
	parallel.ForEach(len(jobs), workers, 1, func(worker, lo, hi int) {
		for j := lo; j < hi; j++ {
			sp := blocks[jobs[j].bi].spans[jobs[j].st]
			comps[j] = s.sealCodecs[worker].compress(comps[j][:0], arena[sp.off:sp.off+sp.len])
			crcs[j] = crc32.ChecksumIEEE(comps[j])
		}
	})

	f, err := os.OpenFile(filepath.Join(s.dir, file), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Write(segMagicV3[:]); err != nil {
		return nil, err
	}
	off := int64(len(segMagicV3))
	var dirBuf []byte
	ji := 0
	for bi := range blocks {
		be := &blocks[bi]
		var clens [numStripes]int
		var scrcs [numStripes]uint32
		first := ji
		for st := 0; st < numStripes; st++ {
			if be.spans[st].len > 0 {
				clens[st] = len(comps[ji])
				scrcs[st] = crcs[ji]
				ji++
			}
		}
		dirBuf = encodeColDir(dirBuf[:0], be, clens, scrcs)
		if _, err := f.Write(dirBuf); err != nil {
			return nil, err
		}
		clen, ulen := len(dirBuf), 0
		for j := first; j < ji; j++ {
			if _, err := f.Write(comps[j]); err != nil {
				return nil, err
			}
			clen += len(comps[j])
		}
		for st := 0; st < numStripes; st++ {
			ulen += be.spans[st].len
		}
		ix.blocks = append(ix.blocks, blockMeta{
			Off:    off,
			CLen:   clen,
			ULen:   ulen,
			Count:  be.count,
			CRC:    crc32.ChecksumIEEE(dirBuf),
			DirLen: len(dirBuf),
		})
		off += int64(clen)
		meta.RawBytes += int64(ulen)
		meta.CompBytes += int64(clen)
	}
	if _, err := f.Write(appendFooter(dirBuf[:0], ix)); err != nil {
		return nil, err
	}
	s.sealBlocks.Add(int64(len(blocks)))
	if err := f.Sync(); err != nil {
		return nil, err
	}
	meta.NBlocks = len(ix.blocks)
	meta.setIndex(ix)
	return meta, nil
}

// ---- reading ----

// byteReader is a bounds-checked cursor over an untrusted stripe or
// directory payload: any overrun or malformed varint latches err.
type byteReader struct {
	b   []byte
	i   int
	err bool
}

func (r *byteReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.i:])
	if n <= 0 {
		r.err = true
		return 0
	}
	r.i += n
	return v
}

func (r *byteReader) varint() int64 {
	v, n := binary.Varint(r.b[r.i:])
	if n <= 0 {
		r.err = true
		return 0
	}
	r.i += n
	return v
}

func (r *byteReader) byte() byte {
	if r.i >= len(r.b) {
		r.err = true
		return 0
	}
	b := r.b[r.i]
	r.i++
	return b
}

func (r *byteReader) bytes(n int) []byte {
	if n < 0 || r.i+n > len(r.b) {
		r.err = true
		return nil
	}
	b := r.b[r.i : r.i+n]
	r.i += n
	return b
}

// colDir is one block's parsed directory.
type colDir struct {
	bi         int // the block's index in its segment
	rows       int
	tnOK       bool
	minT, maxT int64
	kindMask   byte
	protoMask  byte
	plain      session.ColumnSet // writer-asserted plain-string columns
	clen, ulen [numStripes]int
	crc        [numStripes]uint32
	off        [numStripes]int64 // absolute file offset of each stripe
}

// parseColDir decodes a directory read from bm.Off; stripe offsets are
// laid out back-to-back after the directory.
func parseColDir(buf []byte, bm *blockMeta, d *colDir) error {
	r := &byteReader{b: buf}
	d.rows = int(r.uvarint())
	flags := r.byte()
	d.tnOK = flags&1 != 0
	d.minT = r.varint()
	d.maxT = r.varint()
	d.kindMask = r.byte()
	d.protoMask = r.byte()
	d.plain = session.ColumnSet(r.uvarint())
	n := r.uvarint()
	if r.err || n != numStripes || d.rows <= 0 || d.rows != bm.Count {
		return fmt.Errorf("store: corrupt block directory")
	}
	// The lengths size reads and allocations, so each is bounded before
	// it becomes an int: the stripes share exactly the block's bytes
	// after the directory (readDir has checked 0 < DirLen <= CLen), and
	// none expands past what LZ can make of it.
	off, rest := bm.Off+int64(bm.DirLen), uint64(bm.CLen-bm.DirLen)
	for st := 0; st < numStripes; st++ {
		clen, ulen := r.uvarint(), r.uvarint()
		if clen > rest || ulen > lzMaxExpand*clen || ulen > maxStripeLen {
			return fmt.Errorf("store: corrupt block directory")
		}
		rest -= clen
		d.clen[st], d.ulen[st] = int(clen), int(ulen)
		d.crc[st] = uint32(r.uvarint())
		d.off[st] = off
		off += int64(clen)
	}
	if r.err || r.i != len(buf) || rest != 0 {
		return fmt.Errorf("store: corrupt block directory")
	}
	return nil
}

// maxStripeLen caps one stripe's declared uncompressed length: far
// above any block a writer seals (BlockBytes defaults to 256 KiB), far
// below an allocation that could hurt.
const maxStripeLen = 1 << 30

// colData is one decoded column inside the current block: fragment
// offsets and lengths into the stripe's data section. lens[i] == 0
// means row i has no fragment; an all-zero (or nil) colData means the
// stripe was empty or never loaded.
type colData struct {
	data []byte
	off  []uint32
	lens []uint32
}

func (cd *colData) frag(i int) []byte {
	if cd.lens == nil || cd.lens[i] == 0 {
		return nil
	}
	return cd.data[cd.off[i] : cd.off[i]+cd.lens[i]]
}

func (cd *colData) clear() { cd.data, cd.off, cd.lens = nil, nil, nil }

// growU32 returns *p resized to n entries.
func growU32(p *[]uint32, n int) []uint32 {
	if cap(*p) < n {
		*p = make([]uint32, n)
	}
	return (*p)[:n]
}

// parseColStripe decodes one column stripe into cd. Fragment bytes
// alias payload.
func parseColStripe(payload []byte, rows int, offSc, lenSc *[]uint32, cd *colData) error {
	cd.off = growU32(offSc, rows)
	cd.lens = growU32(lenSc, rows)
	bmLen := (rows + 7) / 8
	if len(payload) < bmLen {
		return fmt.Errorf("store: corrupt column stripe")
	}
	bm := payload[:bmLen]
	pos := bmLen
	var total int64
	var off uint32
	for i := 0; i < rows; i++ {
		cd.off[i] = off
		if bm[i>>3]&(1<<uint(i&7)) == 0 {
			cd.lens[i] = 0
			continue
		}
		// Lengths under 128 are single-byte varints — the common case
		// by far — so decode them inline and fall back to the generic
		// decoder only for longer fragments.
		var l uint64
		if pos < len(payload) && payload[pos] < 0x80 {
			l = uint64(payload[pos])
			pos++
		} else {
			v, n := binary.Uvarint(payload[pos:])
			if n <= 0 {
				return fmt.Errorf("store: corrupt column stripe")
			}
			l = v
			pos += n
		}
		if l == 0 || l > uint64(len(payload)) {
			return fmt.Errorf("store: corrupt column stripe")
		}
		cd.lens[i] = uint32(l)
		off += uint32(l)
		total += int64(l)
	}
	data := payload[pos:]
	if int64(len(data)) != total {
		return fmt.Errorf("store: corrupt column stripe")
	}
	cd.data = data
	return nil
}

// colScratch is the pooled working set of one open v3 segment: stripe
// buffers, parsed sidecars, per-column fragment tables, and bitmap
// space for the vectorized evaluator. Pooled so a scan over many
// segments allocates a bounded working set.
type colScratch struct {
	lz      lzCodec
	comp    []byte
	dirBuf  []byte
	stripe  [numStripes][]byte
	seqs    []uint64
	tnanos  []int64
	kinds   []byte
	protos  []uint32
	dict    []string
	cols    [session.NumColumns]colData
	colOff  [session.NumColumns][]uint32
	colLen  [session.NumColumns][]uint32
	raw     colData
	rawOff  []uint32
	rawLen  []uint32
	bm      []uint64 // bitmap arena for the evaluator
	lineBuf []byte   // assembly fallback / full-line reads
	frag    session.FragReader
}

var colScratchPool = sync.Pool{New: func() any { return new(colScratch) }}

// poolGets/poolPuts count colScratchPool traffic, so tests can assert
// that every scan — early exit included — returns what it took.
var poolGets, poolPuts atomic.Int64

// poolCounters reports cumulative block-scratch pool gets and puts.
func poolCounters() (gets, puts int64) { return poolGets.Load(), poolPuts.Load() }

func acquireColScratch() *colScratch {
	poolGets.Add(1)
	return colScratchPool.Get().(*colScratch)
}

func releaseColScratch(sc *colScratch) {
	poolPuts.Add(1)
	colScratchPool.Put(sc)
}

// colSeg is one open v3 segment file, its block index, and its
// scratch: pooled and owned, or borrowed from the runParts worker that
// opened it.
type colSeg struct {
	s        *Store // counters; may be nil in tests
	f        *os.File
	meta     *segmentMeta
	blocks   []blockMeta
	sc       *colScratch
	borrowed bool // sc belongs to the caller, not this segment
}

// openColSeg opens a v3 segment for reading with scratch sc, or with
// its own from the pool when sc is nil, reading its footer if this is
// the segment's first use.
func (s *Store) openColSeg(meta *segmentMeta, sc *colScratch) (*colSeg, error) {
	f, err := os.Open(filepath.Join(s.dir, meta.File))
	if err != nil {
		return nil, err
	}
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil || magic != segMagicV3 {
		f.Close()
		return nil, &CorruptError{meta.File, 0, errors.New("bad segment magic")}
	}
	ix, err := meta.index(s.dir, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	cs := &colSeg{s: s, f: f, meta: meta, blocks: ix.blocks, sc: sc, borrowed: sc != nil}
	if sc == nil {
		cs.sc = acquireColScratch()
	}
	return cs, nil
}

func (cs *colSeg) close() error {
	if cs.sc != nil && !cs.borrowed {
		releaseColScratch(cs.sc)
	}
	cs.sc = nil
	return cs.f.Close()
}

// errorf reports a read error of block bi as a CorruptError.
func (cs *colSeg) errorf(bi int, format string, args ...any) error {
	return &CorruptError{cs.meta.File, bi, fmt.Errorf(format, args...)}
}

// readDir reads and verifies block bi's directory.
func (cs *colSeg) readDir(bi int, d *colDir) error {
	bm := &cs.blocks[bi]
	if bm.DirLen <= 0 || bm.DirLen > bm.CLen {
		return cs.errorf(bi, "bad directory length")
	}
	buf := grow(&cs.sc.dirBuf, bm.DirLen)
	if _, err := cs.f.ReadAt(buf, bm.Off); err != nil {
		return cs.errorf(bi, "read directory: %w", err)
	}
	if crc := crc32.ChecksumIEEE(buf); crc != bm.CRC {
		return cs.errorf(bi, "directory at offset %d: CRC mismatch", bm.Off)
	}
	if err := parseColDir(buf, bm, d); err != nil {
		return cs.errorf(bi, "%w", err)
	}
	d.bi = bi
	return nil
}

// loadStripe reads, verifies, and decompresses stripe st of the block
// described by d into the scratch slot, returning its payload. An
// empty stripe returns nil.
func (cs *colSeg) loadStripe(d *colDir, st int, stats *PlanStats) ([]byte, error) {
	if d.ulen[st] == 0 {
		return nil, nil
	}
	comp := grow(&cs.sc.comp, d.clen[st])
	if _, err := cs.f.ReadAt(comp, d.off[st]); err != nil {
		return nil, cs.errorf(d.bi, "read stripe %d: %w", st, err)
	}
	if crc := crc32.ChecksumIEEE(comp); crc != d.crc[st] {
		return nil, cs.errorf(d.bi, "stripe %d at offset %d: CRC mismatch", st, d.off[st])
	}
	buf := grow(&cs.sc.stripe[st], d.ulen[st])
	if err := cs.sc.lz.decompress(buf, comp); err != nil {
		return nil, cs.errorf(d.bi, "decompress stripe %d: %w", st, err)
	}
	if stats != nil {
		stats.StripesRead++
		stats.StripeBytes += int64(d.clen[st])
	}
	return buf, nil
}

// loadSeqs loads and parses the seq stripe. Only the sequence-ordered
// readers need it; masked scans skip the stripe entirely.
func (cs *colSeg) loadSeqs(d *colDir, stats *PlanStats) error {
	sc := cs.sc
	buf, err := cs.loadStripe(d, stripeSeq, stats)
	if err != nil {
		return err
	}
	r := &byteReader{b: buf}
	if cap(sc.seqs) < d.rows {
		sc.seqs = make([]uint64, d.rows)
	}
	sc.seqs = sc.seqs[:d.rows]
	var prev uint64
	for i := 0; i < d.rows; i++ {
		v := r.uvarint()
		if i > 0 {
			v += prev
		}
		sc.seqs[i] = v
		prev = v
	}
	if r.err || r.i != len(buf) {
		return cs.errorf(d.bi, "corrupt seq stripe")
	}
	return nil
}

// loadSidecars loads and parses the meta stripe (valid for every row,
// shredded or raw).
func (cs *colSeg) loadSidecars(d *colDir, stats *PlanStats) error {
	sc := cs.sc
	buf, err := cs.loadStripe(d, stripeMeta, stats)
	if err != nil {
		return err
	}
	r := &byteReader{b: buf}
	flags := r.byte()
	if flags&1 != 0 {
		if cap(sc.tnanos) < d.rows {
			sc.tnanos = make([]int64, d.rows)
		}
		sc.tnanos = sc.tnanos[:d.rows]
		var pt int64
		for i := 0; i < d.rows; i++ {
			v := r.varint()
			if i > 0 {
				v += pt
			}
			sc.tnanos[i] = v
			pt = v
		}
	} else {
		sc.tnanos = sc.tnanos[:0]
	}
	sc.kinds = append(sc.kinds[:0], r.bytes(d.rows)...)
	if cap(sc.protos) < d.rows {
		sc.protos = make([]uint32, d.rows)
	}
	sc.protos = sc.protos[:d.rows]
	for i := 0; i < d.rows; i++ {
		sc.protos[i] = uint32(r.uvarint())
	}
	dictN := r.uvarint()
	if r.err || dictN > uint64(len(buf)) {
		return cs.errorf(d.bi, "corrupt meta stripe")
	}
	sc.dict = sc.dict[:0]
	for i := uint64(0); i < dictN; i++ {
		l := r.uvarint()
		sc.dict = append(sc.dict, string(r.bytes(int(l))))
	}
	if r.err || r.i != len(buf) {
		return cs.errorf(d.bi, "corrupt meta stripe")
	}
	for i := 0; i < d.rows; i++ {
		if sc.protos[i] >= uint32(len(sc.dict)) {
			return cs.errorf(d.bi, "corrupt meta stripe")
		}
	}
	return nil
}

// loadCol loads and parses one field column of the block.
func (cs *colSeg) loadCol(d *colDir, c int, stats *PlanStats) error {
	buf, err := cs.loadStripe(d, stripeField0+c, stats)
	if err != nil {
		return err
	}
	if buf == nil {
		cs.sc.cols[c].clear()
		return nil
	}
	if err := parseColStripe(buf, d.rows, &cs.sc.colOff[c], &cs.sc.colLen[c], &cs.sc.cols[c]); err != nil {
		return cs.errorf(d.bi, "column %s: %w", session.ColumnName(c), err)
	}
	return nil
}

// loadRaw loads the raw-overflow stripe (whole lines for unshreddable
// rows).
func (cs *colSeg) loadRaw(d *colDir, stats *PlanStats) error {
	buf, err := cs.loadStripe(d, stripeRaw, stats)
	if err != nil {
		return err
	}
	if buf == nil {
		cs.sc.raw.clear()
		return nil
	}
	if err := parseColStripe(buf, d.rows, &cs.sc.rawOff, &cs.sc.rawLen, &cs.sc.raw); err != nil {
		return cs.errorf(d.bi, "raw stripe: %w", err)
	}
	return nil
}

// colReader reads a v3 segment as (seq, canonical line) pairs by
// loading every stripe and reassembling each line; lines alias reader
// scratch, valid until the next call. The sequence-ordered paths
// (replication, Stream) use it; masked scans use colCursor instead.
type colReader struct {
	cs   *colSeg
	bi   int
	rows int
	row  int
	dir  colDir
	asm  session.Columns
}

func (cr *colReader) next() (uint64, []byte, error) {
	sc := cr.cs.sc
	for cr.row >= cr.rows {
		if cr.bi >= len(cr.cs.blocks) {
			return 0, nil, io.EOF
		}
		if err := cr.loadBlock(cr.bi); err != nil {
			return 0, nil, err
		}
		cr.bi++
	}
	i := cr.row
	cr.row++
	if line := sc.raw.frag(i); line != nil {
		return sc.seqs[i], line, nil
	}
	for c := 0; c < session.NumColumns; c++ {
		cr.asm[c] = sc.cols[c].frag(i)
	}
	sc.lineBuf = session.AppendAssembled(sc.lineBuf[:0], &cr.asm)
	return sc.seqs[i], sc.lineBuf, nil
}

func (cr *colReader) loadBlock(bi int) error {
	if err := cr.cs.readDir(bi, &cr.dir); err != nil {
		return err
	}
	if err := cr.cs.loadSeqs(&cr.dir, nil); err != nil {
		return err
	}
	if err := cr.cs.loadSidecars(&cr.dir, nil); err != nil {
		return err
	}
	for c := 0; c < session.NumColumns; c++ {
		if err := cr.cs.loadCol(&cr.dir, c, nil); err != nil {
			return err
		}
	}
	if err := cr.cs.loadRaw(&cr.dir, nil); err != nil {
		return err
	}
	cr.rows, cr.row = cr.dir.rows, 0
	if cr.cs.s != nil {
		cr.cs.s.blocksRead.Add(1)
	}
	return nil
}

func (cr *colReader) close() error { return cr.cs.close() }
