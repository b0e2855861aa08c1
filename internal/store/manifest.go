package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The manifest is the store's commit record: a segment exists once —
// and only once — the manifest referencing it has been atomically
// renamed into place and fsynced. Everything else on disk (a partially
// written segment from a crashed seal, a WAL the seal already folded
// in) is recovered or discarded against it on Open. It only lists
// segments, with what opening, pruning and metadata answers read; a
// segment's Bloom filter and block index are in its own footer
// (segment.go), read when the segment is first read.

const (
	manifestName = "MANIFEST.json"
	// manifestVersion 2 lists segments that carry their index in a
	// footer; a version 1 manifest, whose entries all hold it inline,
	// is read too.
	manifestVersion = 2
	walName         = "wal.jsonl"
	walSealingName  = "wal-sealing.jsonl" // WAL rotated aside for a background seal
	monthLayout     = "2006-01"
)

// blockMeta locates one compressed block inside a segment file. For
// columnar blocks (v3) DirLen is the length of the uncompressed column
// directory at Off, the CRC covers the directory bytes (each stripe
// carries its own CRC in the directory), CLen is directory plus all
// stripes, and ULen is the summed uncompressed stripe length. For the
// row blocks compaction reads (v1/v2) the CRC covers the compressed
// bytes.
type blockMeta struct {
	Off    int64  `json:"off"`            // byte offset in the segment file
	CLen   int    `json:"clen"`           // compressed length
	ULen   int    `json:"ulen"`           // uncompressed payload length
	Count  int    `json:"count"`          // records in the block
	CRC    uint32 `json:"crc"`            // IEEE CRC-32 (v1/v2: compressed bytes; v3: directory)
	DirLen int    `json:"dlen,omitempty"` // v3 only: column directory length
}

// segmentMeta describes one sealed, immutable segment: a single month's
// worth of records from one seal, with the per-segment aggregates the
// query engine prunes and rolls up on. Its index — Bloom filter and
// block index — is in the segment's footer, read on first use.
type segmentMeta struct {
	File    string    `json:"file"`
	Month   string    `json:"month"` // "2006-01"
	MinTime time.Time `json:"min_time"`
	MaxTime time.Time `json:"max_time"`
	MinSeq  uint64    `json:"min_seq"` // global append order bounds
	MaxSeq  uint64    `json:"max_seq"`
	Records int       `json:"records"`
	// Kinds counts records per session.Kind (index = kind value).
	Kinds     [4]int `json:"kinds"`
	SSH       int    `json:"ssh"`
	Telnet    int    `json:"telnet"`
	RawBytes  int64  `json:"raw_bytes"`
	CompBytes int64  `json:"comp_bytes"`
	// Codec names the layout: "v3" the columnar one (HNSTORE3,
	// LZ-compressed stripes), the only one written and read; "" or
	// "flate" (HNSTORE1) and "lz" (HNSTORE2) the row layouts older
	// stores sealed, which compaction rewrites as v3.
	Codec string `json:"codec,omitempty"`
	// NBlocks lets a segment answered by metadata or pruned by its
	// Bloom filter count its blocks skipped without a footer read.
	NBlocks int `json:"nblocks,omitempty"`
	// Bloom (over client IPs) and Blocks are the index of an entry
	// written before segments had footers; neither is written now.
	Bloom  *Bloom      `json:"bloom,omitempty"`
	Blocks []blockMeta `json:"blocks,omitempty"`

	idxOnce sync.Once
	idx     *segIndex
	idxErr  error

	// enc caches the entry's JSON, marshaled or as read: segments are
	// immutable, so a seal marshals only the entries it adds, not every
	// older one, which would make manifest writes quadratic.
	enc json.RawMessage
}

// segIndex is what reading a segment's blocks needs beyond its manifest
// entry: the Bloom filter over its client IPs and its block index.
type segIndex struct {
	bloom  *Bloom
	blocks []blockMeta
}

// setIndex gives sm its index without a read: a segment just written,
// or an entry holding its index inline.
func (sm *segmentMeta) setIndex(ix *segIndex) { sm.idxOnce.Do(func() { sm.idx = ix }) }

// index returns sm's index, read on first use from its footer, through f
// if the caller has the file open; a failed read fails every call.
func (sm *segmentMeta) index(dir string, f *os.File) (*segIndex, error) {
	sm.idxOnce.Do(func() {
		if f == nil {
			if f, sm.idxErr = os.Open(filepath.Join(dir, sm.File)); sm.idxErr != nil {
				return
			}
			defer f.Close()
		}
		sm.idx, sm.idxErr = readFooter(f, sm)
	})
	return sm.idx, sm.idxErr
}

// month parses the segment's partition month.
func (sm *segmentMeta) month() time.Time {
	t, _ := time.Parse(monthLayout, sm.Month)
	return t
}

// manifest is the fsynced root of the store. It is treated as
// copy-on-write in memory: a seal builds a new value and swaps it in,
// so cursors holding the old one keep a consistent snapshot.
type manifest struct {
	Version int `json:"version"`
	// NextSeg numbers the next segment file, monotonically, so a
	// crashed seal's orphan file is simply overwritten by the retry.
	NextSeg int `json:"next_seg"`
	// NextSeq is the global append sequence of the first WAL record:
	// every record ever sealed has a unique, dense seq in [0, NextSeq).
	NextSeq  uint64         `json:"next_seq"`
	Segments []*segmentMeta `json:"segments"`
}

// loadManifest reads dir's manifest; a missing file yields a fresh one.
func loadManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return &manifest{Version: manifestVersion}, nil
		}
		return nil, err
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("store: corrupt manifest: %w", err)
	}
	if m.Version != 1 && m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest version %d not supported", m.Version)
	}
	for i, sm := range m.Segments {
		if sm == nil {
			return nil, fmt.Errorf("store: manifest: segment %d: null entry", i)
		}
		if err := sm.validate(dir, m); err != nil {
			return nil, fmt.Errorf("store: manifest: segment %d (%q): %w", i, sm.File, err)
		}
	}
	return m, nil
}

// decodeManifest decodes data in one json.Decoder pass, which leaves
// each segment entry's bytes in data for its enc. Unmarshaling the
// entries as raw messages and then each one scans every entry three
// times more, a cost an open pays per segment.
func decodeManifest(data []byte) (*manifest, error) {
	m := &manifest{}
	dec := json.NewDecoder(bytes.NewReader(data))
	delim := func(want json.Delim) error {
		if t, err := dec.Token(); err != nil || t != want {
			return fmt.Errorf("want %v, have %v (%v)", want, t, err)
		}
		return nil
	}
	head := map[json.Token]any{"version": &m.Version, "next_seg": &m.NextSeg, "next_seq": &m.NextSeq}
	err := delim('{')
	for err == nil && dec.More() {
		var key json.Token
		if key, err = dec.Token(); err != nil {
			break
		}
		switch v := head[key]; {
		case key == "segments":
			for err = delim('['); err == nil && dec.More(); {
				start, sm := dec.InputOffset(), (*segmentMeta)(nil)
				if err = dec.Decode(&sm); err == nil && sm != nil {
					sm.enc = bytes.TrimLeft(data[start:dec.InputOffset()], ", \t\r\n")
				}
				m.Segments = append(m.Segments, sm)
			}
			if err == nil {
				err = delim(']')
			}
		case v != nil:
			err = dec.Decode(v)
		default:
			err = dec.Decode(new(json.RawMessage))
		}
	}
	if err == nil {
		err = delim('}')
	}
	if _, end := dec.Token(); err == nil && end != io.EOF {
		err = errors.New("data after the manifest object")
	}
	return m, err
}

// maxExpand bounds a block's declared uncompressed length by its
// compressed one. DEFLATE, the denser of the block codecs, tops out at
// 1032:1, so no genuine block exceeds it, and a hostile index cannot
// make a reader allocate more than that multiple of a file it names.
const maxExpand = 1032

// validate checks every value of the entry a reader later opens, indexes,
// slices or allocates by, so a corrupt or hostile manifest fails Open
// with the field named instead of panicking (or reading outside dir, or
// filing records under the zero month) at the first query. An inline
// index is checked here and becomes the entry's index; a footer is
// checked when it is read.
func (sm *segmentMeta) validate(dir string, m *manifest) error {
	digits, _ := strings.CutPrefix(sm.File, "seg-")
	digits, _ = strings.CutSuffix(digits, ".hns")
	if n, err := strconv.Atoi(digits); err != nil || n < 0 || n >= m.NextSeg || segFileName(n) != sm.File {
		return fmt.Errorf("file: not a seg-NNNNNN.hns name below next_seg %d", m.NextSeg)
	}
	if _, err := time.Parse(monthLayout, sm.Month); err != nil {
		return fmt.Errorf("month: %w", err)
	}
	switch sm.Codec {
	case "", codecFlate, codecLZ, codecV3:
	default:
		return fmt.Errorf("codec: unknown tag %q", sm.Codec)
	}
	if sm.MinSeq > sm.MaxSeq || sm.MaxSeq >= m.NextSeq {
		return fmt.Errorf("min_seq/max_seq: [%d, %d] not below next_seq %d", sm.MinSeq, sm.MaxSeq, m.NextSeq)
	}
	fi, err := os.Stat(filepath.Join(dir, sm.File))
	if err != nil {
		return err
	}
	if sm.Blocks == nil {
		if sm.legacy() || sm.NBlocks <= 0 || sm.NBlocks > sm.Records {
			return fmt.Errorf("nblocks: %d for %d records, and no inline index", sm.NBlocks, sm.Records)
		}
		return nil
	}
	sm.NBlocks = len(sm.Blocks)
	ix := &segIndex{bloom: sm.Bloom, blocks: sm.Blocks}
	sm.setIndex(ix) // a failed check fails the open, so nothing reads it
	return ix.check(sm, fi.Size())
}

// check holds an index, inline or from a footer, to its entry and to
// end, the offset its blocks lie below: every value a reader later
// indexes, slices or allocates by.
func (ix *segIndex) check(sm *segmentMeta, end int64) error {
	if b := ix.bloom; b != nil && (b.K < 1 || b.K > 32 || b.M == 0 || uint64(len(b.Bits))*8 < b.M) {
		return fmt.Errorf("bloom: k=%d, m=%d over %d bytes", b.K, b.M, len(b.Bits))
	}
	if b := ix.bloom; b != nil && !sm.legacy() && (b.V != 1 || b.M&(b.M-1) != 0) {
		return fmt.Errorf("bloom: v=%d, m=%d; a v3 segment's filter is v=1 over a power-of-two m", b.V, b.M)
	}
	if len(ix.blocks) != sm.NBlocks {
		return fmt.Errorf("nblocks: %d, but the index lists %d blocks", sm.NBlocks, len(ix.blocks))
	}
	records := 0
	for bi, b := range ix.blocks {
		switch {
		case b.Off < int64(len(segMagicV3)) || b.CLen <= 0 || b.Off > end-int64(b.CLen):
			return fmt.Errorf("block %d: off=%d clen=%d outside the %d bytes of blocks", bi, b.Off, b.CLen, end)
		case b.DirLen < 0 || b.DirLen > b.CLen:
			return fmt.Errorf("block %d: dlen=%d outside clen=%d", bi, b.DirLen, b.CLen)
		case b.ULen < 0 || int64(b.ULen) > maxExpand*int64(b.CLen):
			return fmt.Errorf("block %d: ulen=%d implausible for clen=%d", bi, b.ULen, b.CLen)
		case b.Count <= 0 || b.Count > sm.Records-records:
			return fmt.Errorf("block %d: count=%d does not fit records=%d", bi, b.Count, sm.Records)
		}
		records += b.Count
	}
	if records != sm.Records {
		return fmt.Errorf("records: %d, but blocks hold %d", sm.Records, records)
	}
	return nil
}

// save writes the manifest atomically: temp file, fsync, rename over
// the live name, fsync the directory. A crash at any point leaves
// either the old or the new manifest, never a torn one.
func (m *manifest) save(dir string) error {
	// Encode through per-segment caches and assemble the document by
	// hand: only segments new to this manifest pay a marshal, and the
	// cached bytes are spliced in without being re-scanned (feeding
	// them to json.Marshal as RawMessage would re-validate every byte
	// of every old segment on every seal).
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"version":%d,"next_seg":%d,"next_seq":%d,"segments":[`,
		m.Version, m.NextSeg, m.NextSeq)
	for i, sm := range m.Segments {
		if sm.enc == nil {
			enc, err := json.Marshal(sm)
			if err != nil {
				return err
			}
			sm.enc = enc
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(sm.enc)
	}
	buf.WriteString("]}\n")
	data := buf.Bytes()
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
