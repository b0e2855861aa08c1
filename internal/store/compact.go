package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"honeynet/internal/session"
)

// Compaction is the migration: it rewrites the HNSTORE1 and HNSTORE2
// row segments older stores sealed as HNSTORE3, the one format every
// reader knows. A read-write Open runs it after crash recovery, before
// the flusher starts. Each run of a month's consecutive legacy segments
// becomes one v3 segment, split where the run's raw bytes would pass
// the seal size, so compaction holds no more of a month in memory than
// a seal holds of its WAL; v3 segments are never rewritten. It is
// finishSeal with "the frozen WAL" replaced by "the run's segments":
// the records are read back and verified in full, written through
// writeSegment under their own sequences, and committed by one manifest
// save that swaps the old entries for the new one; the old files go
// last. A crash before the commit leaves the new file unreferenced, one
// after it the old ones; the next read-write Open removes both
// (dropOrphans). A failure fails the Open, since no other reader can
// read the month; the files stay as they were.
//
// The row layouts: each block one compressed run of uvarint(seq),
// uvarint(len), record JSON entries, DEFLATE for '1' and lzCodec for
// '2'. Only eachRowEntry reads them; a ReadOnly open of a store listing
// one fails with ErrLegacySegment.

var (
	segMagicV1 = [8]byte{'H', 'N', 'S', 'T', 'O', 'R', 'E', '1'}
	segMagicV2 = [8]byte{'H', 'N', 'S', 'T', 'O', 'R', 'E', '2'}
)

// The manifest codec tags of the row layouts.
const (
	codecLZ    = "lz"    // HNSTORE2
	codecFlate = "flate" // HNSTORE1; "" in manifests that predate the field
)

// ErrLegacySegment is what a ReadOnly Open returns for a store whose
// manifest still lists an HNSTORE1 or HNSTORE2 segment.
var ErrLegacySegment = errors.New("store: legacy segment")

func (sm *segmentMeta) legacy() bool { return sm.Codec != codecV3 }

// compact migrates every legacy segment, run by run.
func (s *Store) compact() error {
	byMonth := map[string][]*segmentMeta{}
	var months []string
	for _, sm := range s.man.Segments {
		if byMonth[sm.Month] == nil {
			months = append(months, sm.Month)
		}
		byMonth[sm.Month] = append(byMonth[sm.Month], sm)
	}
	limit := s.opts.sealBytes()
	var runs [][]*segmentMeta
	for _, m := range months {
		var run []*segmentMeta
		var raw int64
		for _, sm := range byMonth[m] {
			if len(run) > 0 && (!sm.legacy() || limit > 0 && raw+sm.RawBytes > limit) {
				runs, run, raw = append(runs, run), nil, 0
			}
			if sm.legacy() {
				run, raw = append(run, sm), raw+sm.RawBytes
			}
		}
		if len(run) > 0 {
			runs = append(runs, run)
		}
	}
	for _, run := range runs {
		if err := s.compactRun(run); err != nil {
			return fmt.Errorf("store: migrate %s: %w", run[0].File, err)
		}
	}
	return nil
}

// compactRun replaces segs, legacy segments of one month in manifest
// order, with one v3 segment holding their records under the same
// sequences. Every block is read and verified before anything is
// written, so a corrupt one leaves the store as it was.
func (s *Store) compactRun(segs []*segmentMeta) error {
	var recs []*session.Record
	var lines [][]byte
	var seqs []uint64
	var dec session.JSONDecoder
	for _, sm := range segs {
		err := eachRowEntry(s.dir, sm, func(bi int, seq uint64, line []byte) error {
			if seq < sm.MinSeq || seq > sm.MaxSeq || len(seqs) > 0 && seq <= seqs[len(seqs)-1] {
				return &CorruptError{sm.File, bi, fmt.Errorf("seq %d out of order", seq)}
			}
			r := new(session.Record)
			if err := dec.Decode(line, r); err != nil {
				return &CorruptError{sm.File, bi, fmt.Errorf("seq %d: %w", seq, err)}
			}
			recs, lines, seqs = append(recs, r), append(lines, bytes.Clone(line)), append(seqs, seq)
			return nil
		})
		if err != nil {
			return err
		}
	}
	man := s.man
	file := segFileName(man.NextSeg)
	meta, err := s.writeSegment(file, recs, lines, seqs)
	s.sealFrames, s.sealComps = nil, nil // a run's working set is not the seals' to keep
	if err == nil {
		err = syncDir(s.dir)
	}
	if err != nil {
		removeAll(s.dir, []string{file})
		return err
	}
	s.at("compact:built")
	newMan := &manifest{Version: manifestVersion, NextSeg: man.NextSeg + 1, NextSeq: man.NextSeq}
	var files []string
	for _, sm := range man.Segments {
		if !slices.Contains(segs, sm) {
			newMan.Segments = append(newMan.Segments, sm)
			continue
		}
		if sm == segs[0] {
			newMan.Segments = append(newMan.Segments, meta)
		}
		files = append(files, sm.File)
	}
	if err := newMan.save(s.dir); err != nil {
		return err // the new file may be committed: dropOrphans decides
	}
	s.at("compact:committed")
	s.mu.Lock()
	s.man = newMan
	s.mu.Unlock()
	removeAll(s.dir, files)
	s.at("compact:dropped")
	return nil
}

// eachRowEntry calls fn with every entry of an HNSTORE1 or HNSTORE2
// segment in order, with its block index; line is valid only during the
// call. The whole file is read, since compaction wants all of it, and
// each block is verified against its CRC and decompressed before its
// entries go to fn.
func eachRowEntry(dir string, sm *segmentMeta, fn func(bi int, seq uint64, line []byte) error) error {
	magic, decompress := segMagicV1, inflate
	if sm.Codec == codecLZ {
		magic, decompress = segMagicV2, new(lzCodec).decompress
	}
	data, err := os.ReadFile(filepath.Join(dir, sm.File))
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(data, magic[:]) {
		return &CorruptError{sm.File, 0, errors.New("bad segment magic")}
	}
	var buf []byte
	for bi, b := range sm.Blocks {
		corrupt := func(err error) error { return &CorruptError{sm.File, bi, err} }
		end := b.Off + int64(b.CLen)
		if end > int64(len(data)) || crc32.ChecksumIEEE(data[b.Off:end]) != b.CRC {
			return corrupt(fmt.Errorf("at offset %d: CRC mismatch", b.Off))
		}
		buf = grow(&buf, b.ULen)
		if err := decompress(buf, data[b.Off:end]); err != nil {
			return corrupt(fmt.Errorf("decompress: %w", err))
		}
		p := buf
		for n := 0; n < b.Count; n++ {
			seq, line, rest, ok := rowEntry(p)
			if !ok {
				return corrupt(fmt.Errorf("entry %d: corrupt", n))
			}
			if err := fn(bi, seq, line); err != nil {
				return err
			}
			p = rest
		}
	}
	return nil
}

// rowEntry splits one uvarint(seq), uvarint(len), line entry off the
// front of a row block's payload.
func rowEntry(p []byte) (seq uint64, line, rest []byte, ok bool) {
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, nil, nil, false
	}
	ln, m := binary.Uvarint(p[n:])
	if m <= 0 || ln > uint64(len(p)-n-m) {
		return 0, nil, nil, false
	}
	p = p[n+m:]
	return seq, p[:ln], p[ln:], true
}

// inflate decodes an HNSTORE1 block: DEFLATE.
func inflate(dst, src []byte) error {
	_, err := io.ReadFull(flate.NewReader(bytes.NewReader(src)), dst)
	return err
}

// dropOrphans removes, best-effort, every segment file the manifest
// does not reference: what a seal or a compaction wrote before a crash
// or a failure beat its commit, and what a compaction committed away
// before a crash beat the removal.
func (s *Store) dropOrphans() {
	entries, _ := os.ReadDir(s.dir)
	live := map[string]bool{}
	for _, sm := range s.man.Segments {
		live[sm.File] = true
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".hns") && !live[name] {
			files = append(files, name)
		}
	}
	removeAll(s.dir, files)
}
