package store

import (
	"fmt"
	"io"
	"sort"
	"time"

	"honeynet/internal/session"
)

// TimeRange selects records whose Start falls in [From, To). A zero
// bound is open.
type TimeRange struct {
	From, To time.Time
}

// Month returns the range covering exactly one partition month.
func Month(m time.Time) TimeRange {
	from := time.Date(m.Year(), m.Month(), 1, 0, 0, 0, 0, time.UTC)
	return TimeRange{From: from, To: from.AddDate(0, 1, 0)}
}

// contains reports whether t falls in the range.
func (tr TimeRange) contains(t time.Time) bool {
	if !tr.From.IsZero() && t.Before(tr.From) {
		return false
	}
	if !tr.To.IsZero() && !t.Before(tr.To) {
		return false
	}
	return true
}

// Filter is a compiled predicate (see CompilePred). A nil Filter selects
// all.
type Filter func(*session.Record) bool

// part is one unit of cursor iteration: either a sealed segment or a
// month's slice of the unsealed tail.
type part struct {
	seg  *segmentMeta
	tail []*session.Record
}

// Cursor streams records from a snapshot of the store without
// materializing the dataset: months ascend, and within a month records
// come in append order (sealed segments first, then the unsealed
// tail). Peak memory is bounded by one compressed block plus its
// uncompressed payload. A Cursor is not safe for concurrent use.
type Cursor struct {
	s      *Store
	parts  []part
	pi     int
	br     segReader  // open v1/v2 segment, if any
	cc     *colCursor // open v3 segment, if any
	ti     int
	tr     TimeRange
	filter Filter
	ip     string            // non-empty for the `ip =` route: exact client-IP match
	mask   session.FieldMask // projection: fields to decode (0 = all)
	pred   *Pred             // pushed predicate: prefilter only, Next re-checks
	prog   *vecProg          // compiled vectorized prefilter (lazy)
	progOK bool
	stats  *PlanStats // per-query plan stats; may be nil
	cur    *session.Record
	err    error
	dec    session.JSONDecoder
	arena  recArena
}

// recArena bump-allocates records in chunks, so decoding a block of
// sessions costs one allocation per chunk instead of one per record.
type recArena struct {
	chunk []session.Record
}

const recArenaChunk = 128

func (a *recArena) alloc() *session.Record {
	if len(a.chunk) == 0 {
		a.chunk = make([]session.Record, recArenaChunk)
	}
	r := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return r
}

// scanQ builds the streaming cursor every query path shares: month and
// segment time-bound pruning, Bloom routing for exact-IP scans, a
// decoder field mask for projection pushdown, an optional pushed
// predicate (vectorized prefilter over v3 segments — Next re-checks, so
// it is advisory), and optional plan-stat accounting.
func (s *Store) scanQ(tr TimeRange, filter Filter, ip string, mask session.FieldMask, pred *Pred, stats *PlanStats) *Cursor {
	man, tail := s.snapshot()
	if stats != nil {
		stats.Segments += len(man.Segments)
	}

	// Bucket tail records by month, preserving append order within.
	tailByMonth := map[time.Time][]*session.Record{}
	segsByMonth := map[time.Time][]*segmentMeta{}
	var months []time.Time
	seen := map[time.Time]bool{}
	for _, seg := range man.Segments {
		m := seg.month()
		if !seen[m] {
			seen[m] = true
			months = append(months, m)
		}
		segsByMonth[m] = append(segsByMonth[m], seg)
	}
	for _, r := range tail {
		m := r.Month()
		if !seen[m] {
			seen[m] = true
			months = append(months, m)
		}
		tailByMonth[m] = append(tailByMonth[m], r)
	}
	sort.Slice(months, func(i, j int) bool { return months[i].Before(months[j]) })

	// For IP scans, hash the address once and batch-probe each month's
	// filters: a cheap first-probe sweep rejects most segments before
	// the full probe sequence runs.
	var h1, h2 uint64
	if ip != "" {
		h1, h2 = fnvHashes(ip)
	}
	var cand []*segmentMeta
	var keep []bool
	c := &Cursor{s: s, tr: tr, filter: filter, ip: ip, mask: mask, pred: pred, stats: stats}
	for _, m := range months {
		if !monthOverlaps(m, tr) {
			if stats != nil {
				stats.TimePruned += len(segsByMonth[m])
			}
			continue
		}
		cand = cand[:0]
		for _, seg := range segsByMonth[m] {
			if seg.overlaps(tr.From, tr.To) {
				cand = append(cand, seg)
			} else if stats != nil {
				stats.TimePruned++
			}
		}
		if ip != "" && len(cand) > 0 {
			keep = bloomPrune(cand, h1, h2, keep)
			if stats != nil {
				stats.BloomChecked += len(cand)
			}
			for i, seg := range cand {
				if keep[i] {
					c.parts = append(c.parts, part{seg: seg})
				} else if stats != nil {
					stats.BloomPruned++
					stats.BlocksSkipped += int64(len(seg.Blocks))
				}
			}
		} else {
			for _, seg := range cand {
				c.parts = append(c.parts, part{seg: seg})
			}
		}
		if t := tailByMonth[m]; len(t) > 0 {
			c.parts = append(c.parts, part{tail: t})
		}
	}
	if stats != nil {
		for _, p := range c.parts {
			if p.seg != nil {
				stats.ScannedSegments++
			}
		}
	}
	return c
}

// monthOverlaps reports whether the partition month [m, m+1mo)
// intersects the range.
func monthOverlaps(m time.Time, tr TimeRange) bool {
	if !tr.To.IsZero() && !m.Before(tr.To) {
		return false
	}
	if !tr.From.IsZero() && !tr.From.Before(m.AddDate(0, 1, 0)) {
		return false
	}
	return true
}

// Next advances to the next matching record. It returns false at the
// end of the scan or on error (see Err).
func (c *Cursor) Next() bool {
	if c.err != nil {
		return false
	}
	for {
		r, err := c.nextRaw()
		if err != nil {
			if err != io.EOF {
				c.err = err
			}
			c.cur = nil
			// Release pooled scratch on every terminal path, error
			// included — leaving it to an optional Close would leak the
			// buffers out of the pool.
			c.Close()
			return false
		}
		if !c.tr.contains(r.Start) {
			continue
		}
		if c.ip != "" && r.ClientIP != c.ip {
			continue
		}
		if c.filter != nil && !c.filter(r) {
			continue
		}
		if c.stats != nil {
			c.stats.MatchedRecords++
		}
		c.cur = r
		return true
	}
}

// nextRaw yields the next record across parts, or io.EOF.
func (c *Cursor) nextRaw() (*session.Record, error) {
	for c.pi < len(c.parts) {
		p := &c.parts[c.pi]
		if p.seg != nil && p.seg.Codec == codecV3 {
			// Columnar segment: the vectorized cursor prunes blocks on
			// zone maps, prefilters rows column-at-a-time, and decodes
			// only the projected columns of the selected rows.
			if c.cc == nil {
				if !c.progOK {
					c.prog = compileVec(c.pred, c.ip, c.tr)
					c.progOK = true
				}
				cc, err := c.s.openColCursor(p.seg, c.prog, c.mask, c.stats, &c.dec, &c.arena)
				if err != nil {
					return nil, err
				}
				c.cc = cc
			}
			r, err := c.cc.next()
			if err == io.EOF {
				c.cc.close()
				c.cc = nil
				c.pi++
				continue
			}
			if err != nil {
				return nil, err
			}
			return r, nil
		}
		if p.seg != nil {
			if c.br == nil {
				br, err := c.s.openSegment(p.seg)
				if err != nil {
					return nil, err
				}
				br.setStats(c.stats)
				c.br = br
			}
			_, line, err := c.br.next()
			if err == io.EOF {
				c.br.close()
				c.br = nil
				c.pi++
				continue
			}
			if err != nil {
				return nil, err
			}
			r := c.arena.alloc()
			if err := c.dec.DecodeMasked(line, r, c.mask); err != nil {
				return nil, fmt.Errorf("store: decoding record: %w", err)
			}
			if c.stats != nil {
				c.stats.ScannedRecords++
			}
			return r, nil
		}
		if c.ti < len(p.tail) {
			r := p.tail[c.ti]
			c.ti++
			if c.stats != nil {
				c.stats.TailRecords++
				c.stats.ScannedRecords++
			}
			return r, nil
		}
		c.ti = 0
		c.pi++
	}
	return nil, io.EOF
}

// Record returns the record Next advanced to.
func (c *Cursor) Record() *session.Record { return c.cur }

// Err returns the first error the scan hit, if any.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's open segment, if any. Safe to call at
// any point; exhausted cursors are already closed.
func (c *Cursor) Close() error {
	var err error
	if c.br != nil {
		err = c.br.close()
		c.br = nil
	}
	if c.cc != nil {
		if cerr := c.cc.close(); err == nil {
			err = cerr
		}
		c.cc = nil
	}
	return err
}

// Months returns the sorted distinct partition months present.
func (s *Store) Months() []time.Time {
	man, tail := s.snapshot()
	seen := map[time.Time]bool{}
	for _, seg := range man.Segments {
		seen[seg.month()] = true
	}
	for _, r := range tail {
		seen[r.Month()] = true
	}
	out := make([]time.Time, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}
