package store

import (
	"cmp"
	"io"
	"slices"
)

// This file is the store's replication surface: fleet mode tails a
// node's local store in exact global append order, using the WAL
// sequence as the replication cursor. ScanSeq streams (seq, canonical
// JSON line) pairs from any starting sequence — sealed segments are
// merged by sequence (segments from one seal interleave, one per
// month), then the unsealed tail follows — so a forwarder can resume
// from an acknowledged cursor without materializing anything.

// NextSeq returns the sequence the next appended record will get: the
// total number of records ever appended (sealed + unsealed). Sequences
// are dense, starting at zero.
func (s *Store) NextSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.man.NextSeq + uint64(len(s.tail))
}

// Watch returns a signal channel that receives (capacity one,
// non-blocking send) after every append. A tailer that drains the
// channel and then re-checks NextSeq never misses progress; coalesced
// signals are expected.
func (s *Store) Watch() <-chan struct{} {
	return s.watch
}

// segStream is one open segment inside a sequence merge, holding its
// current head entry.
type segStream struct {
	br   *colReader
	seq  uint64
	line []byte
}

// SeqCursor streams a snapshot of the store in global append order,
// starting at a given sequence. Line returns the record's canonical
// JSON, valid until the next call to Next. A SeqCursor is not safe for
// concurrent use.
type SeqCursor struct {
	s       *Store
	pending []*segmentMeta // unopened segments, sorted by MinSeq ascending
	heap    []*segStream   // open segments, min-heap on head seq
	last    *segStream     // stream whose head was returned by the last Next
	lines   [][]byte       // canonical lines of the unsealed tail
	base    uint64         // seq of lines[0]
	ti      int
	from    uint64
	seq     uint64
	line    []byte
	err     error
}

// ScanSeq returns a cursor over every record with sequence >= from, in
// sequence order, from a consistent snapshot. Records appended after
// the call are not included; re-scan from the last returned sequence
// plus one to continue (see Watch).
func (s *Store) ScanSeq(from uint64) *SeqCursor {
	s.mu.RLock()
	man := s.man
	lines := s.tailLines[:len(s.tailLines):len(s.tailLines)]
	s.mu.RUnlock()

	c := &SeqCursor{s: s, lines: lines, base: man.NextSeq, from: from}
	for _, seg := range man.Segments {
		if seg.MaxSeq >= from {
			c.pending = append(c.pending, seg)
		}
	}
	// Manifest order is seal order; within it MinSeq ascends per month
	// partition, but be explicit: the merge below depends on it.
	slices.SortStableFunc(c.pending, func(a, b *segmentMeta) int { return cmp.Compare(a.MinSeq, b.MinSeq) })
	if from > man.NextSeq {
		c.ti = int(from - man.NextSeq)
	}
	return c
}

// Next advances to the next record. It returns false at the end of the
// snapshot or on error (see Err).
func (c *SeqCursor) Next() bool {
	if c.err != nil {
		return false
	}
	// Advance the stream whose head the previous Next returned — only
	// now: the reader's line buffer stays valid until this read.
	if st := c.last; st != nil {
		c.last = nil
		if !c.advanceStream(st) {
			return false
		}
	}
	// Open every pending segment that could hold the next sequence: all
	// of them while the heap is empty, otherwise those whose MinSeq
	// precedes the current heap minimum.
	for len(c.pending) > 0 && (len(c.heap) == 0 || c.pending[0].MinSeq <= c.heap[0].seq) {
		if !c.openStream(c.pending[0]) {
			return false
		}
		c.pending = c.pending[1:]
	}
	if len(c.heap) > 0 {
		st := c.heap[0]
		c.seq, c.line = st.seq, st.line
		c.last = st
		return true
	}
	// Segments exhausted: the unsealed tail follows.
	if c.ti < len(c.lines) {
		c.seq, c.line = c.base+uint64(c.ti), c.lines[c.ti]
		c.ti++
		return true
	}
	return false
}

// openStream opens seg, skips entries below the cursor's start, and
// pushes the stream onto the heap (unless empty).
func (c *SeqCursor) openStream(seg *segmentMeta) bool {
	cs, err := c.s.openColSeg(seg, nil)
	if err != nil {
		c.err = err
		return false
	}
	br := &colReader{cs: cs}
	st := &segStream{br: br}
	for {
		seq, line, err := br.next()
		if err == io.EOF {
			br.close()
			return true
		}
		if err != nil {
			br.close()
			c.err = err
			return false
		}
		if seq >= c.from {
			st.seq, st.line = seq, line
			break
		}
	}
	c.heap = append(c.heap, st)
	c.siftUp(len(c.heap) - 1)
	return true
}

// advanceStream replaces the heap minimum's head with its next entry,
// or removes the stream at EOF.
func (c *SeqCursor) advanceStream(st *segStream) bool {
	seq, line, err := st.br.next()
	if err == io.EOF {
		if cerr := st.br.close(); cerr != nil {
			c.err = cerr
			return false
		}
		last := len(c.heap) - 1
		c.heap[0] = c.heap[last]
		c.heap = c.heap[:last]
	} else if err != nil {
		c.err = err
		return false
	} else {
		st.seq, st.line = seq, line
	}
	if len(c.heap) > 0 {
		c.siftDown(0)
	}
	return true
}

func (c *SeqCursor) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if c.heap[p].seq <= c.heap[i].seq {
			return
		}
		c.heap[p], c.heap[i] = c.heap[i], c.heap[p]
		i = p
	}
}

func (c *SeqCursor) siftDown(i int) {
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(c.heap) && c.heap[l].seq < c.heap[min].seq {
			min = l
		}
		if r < len(c.heap) && c.heap[r].seq < c.heap[min].seq {
			min = r
		}
		if min == i {
			return
		}
		c.heap[i], c.heap[min] = c.heap[min], c.heap[i]
		i = min
	}
}

// Seq returns the sequence of the record Next advanced to.
func (c *SeqCursor) Seq() uint64 { return c.seq }

// Line returns the record's canonical JSON (no trailing newline). The
// bytes are valid until the next call to Next.
func (c *SeqCursor) Line() []byte { return c.line }

// Err returns the first error the scan hit, if any.
func (c *SeqCursor) Err() error { return c.err }

// Close releases any open segments. Safe at any point.
func (c *SeqCursor) Close() error {
	var err error
	for _, st := range c.heap {
		if cerr := st.br.close(); err == nil {
			err = cerr
		}
	}
	c.heap = nil
	c.pending = nil
	return err
}
