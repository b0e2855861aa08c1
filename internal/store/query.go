package store

import (
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

// Filter is a compiled predicate (see CompilePred). A nil Filter selects
// all.
type Filter func(*session.Record) bool

// part is one unit of cursor iteration: either a sealed segment or a
// month's slice of the unsealed tail. all marks a segment whose zone
// says every record matches, so none of them needs the row filter.
type part struct {
	seg  *segmentMeta
	all  bool
	tail []*session.Record
}

// Cursor streams records from a snapshot of the store without
// materializing the dataset: months ascend, and within a month records
// come in append order (sealed segments first, then the unsealed
// tail). A row query's cursor holds one compressed block plus its
// uncompressed payload at a time; an aggregate or a fleet month load
// runs one such cursor per part on each of GOMAXPROCS workers
// (runParts), so its peak is one block per worker. A Cursor is not
// safe for concurrent use.
type Cursor struct {
	s     *Store
	p     *plan // the lowered statement: row filter, decoder mask, block prefilter
	parts []part
	pi    int
	cc    *colCursor // open segment, if any
	ti    int
	stats *PlanStats // per-query plan stats; may be nil
	cur   *session.Record
	err   error
	ws    *scanScratch
}

// scanScratch is the decode working set a cursor reads with: the
// record decoder, the arena the records a caller keeps come from, the
// one record a fold decodes each row it cannot read from its block
// into, and — for a cursor a runParts worker drives — the v3 scratch
// every segment it opens borrows. A row query's cursor owns one with
// col nil, so each v3 segment it opens takes its own from the pool.
type scanScratch struct {
	dec   session.JSONDecoder
	arena recArena
	rec   session.Record
	col   *colScratch
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

// scanQ builds the streaming cursor a row query reads over the parts
// planParts leaves.
func (s *Store) scanQ(p *plan, stats *PlanStats) *Cursor {
	return &Cursor{s: s, p: p, parts: s.planParts(p, nil, stats), stats: stats, ws: new(scanScratch)}
}

// planParts lists, in store order, the parts a lowered statement must
// read: a segment whose zone refutes the predicate is skipped, a
// required client IP is probed against the survivors' Bloom filters,
// and — for a count(*) plan, when tab is non-nil — a segment whose
// metadata buckets all come out definite is folded into tab instead of
// scanned.
func (s *Store) planParts(p *plan, tab *aggTable, stats *PlanStats) []part {
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

	var parts []part
	var cand []*segmentMeta
	var zones []zone // parallel to cand
	var keep []bool
	for _, m := range months {
		cand, zones = cand[:0], zones[:0]
		for _, seg := range segsByMonth[m] {
			if z := seg.zone(); p.tri(z) != triFalse {
				cand, zones = append(cand, seg), append(zones, z)
			} else if stats != nil {
				stats.TimePruned++
			}
		}
		if p.ip != "" && len(cand) > 0 {
			keep = bloomPrune(cand, s.dir, p.ip, keep)
			if stats != nil {
				stats.BloomChecked += len(cand)
			}
		}
		for i, seg := range cand {
			switch {
			case p.ip != "" && !keep[i]:
				if stats != nil {
					stats.BloomPruned++
					stats.BlocksSkipped += int64(seg.NBlocks)
				}
			case tab != nil && p.segFromMetadata(seg, zones[i], tab):
				stats.MetaSegments++
				stats.BlocksSkipped += int64(seg.NBlocks)
			default:
				parts = append(parts, part{seg: seg, all: p.tri(zones[i]) == triTrue})
				if stats != nil {
					stats.ScannedSegments++
				}
			}
		}
		if t := tailByMonth[m]; len(t) > 0 {
			parts = append(parts, part{tail: t})
		}
	}
	return parts
}

// Next advances to the next matching record. It returns false at the
// end of the scan or on error (see Err).
func (c *Cursor) Next() bool {
	if c.err != nil {
		return false
	}
	for {
		r, decided, err := c.nextRaw()
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
		if f := c.p.filter; f != nil && !decided && !c.parts[c.pi].all && !f(r) {
			continue
		}
		if c.stats != nil {
			c.stats.MatchedRecords++
		}
		c.cur = r
		return true
	}
}

// nextRaw yields the next record across parts, or io.EOF. decided
// marks a record a column bitmap already found to match.
func (c *Cursor) nextRaw() (*session.Record, bool, error) {
	for c.pi < len(c.parts) {
		p := &c.parts[c.pi]
		if p.seg != nil {
			// The vectorized cursor prunes blocks on their zones,
			// prefilters rows column-at-a-time, and decodes only the
			// projected columns of the selected rows.
			if c.cc == nil {
				cc, err := c.s.openColCursor(p.seg, c.p, c.stats, c.ws)
				if err != nil {
					return nil, false, err
				}
				c.cc = cc
			}
			r, decided, err := c.cc.next()
			if err != io.EOF {
				return r, decided, err
			}
			c.cc.close()
			c.cc = nil
			c.pi++
			continue
		}
		if c.ti < len(p.tail) {
			r := p.tail[c.ti]
			c.ti++
			if c.stats != nil {
				c.stats.TailRecords++
				c.stats.ScannedRecords++
			}
			return r, false, nil
		}
		c.ti = 0
		c.pi++
	}
	return nil, false, io.EOF
}

// fold folds every matching record of the cursor's parts into t, the
// way an aggregate reads them: nothing is kept, so no row takes an
// arena record. A sealed part folds through colCursor.fold; a tail
// part's records are the store's own. The counts it adds to the plan
// statistics are Next's.
func (c *Cursor) fold(t *aggTable) error {
	f := c.p.filter
	for ; c.pi < len(c.parts); c.pi++ {
		pt := &c.parts[c.pi]
		if pt.seg == nil {
			for _, r := range pt.tail {
				if c.stats != nil {
					c.stats.TailRecords++
					c.stats.ScannedRecords++
				}
				if f != nil && !f(r) {
					continue
				}
				if c.stats != nil {
					c.stats.MatchedRecords++
				}
				t.addRecord(r)
			}
			continue
		}
		cc, err := c.s.openColCursor(pt.seg, c.p, c.stats, c.ws)
		if err != nil {
			return err
		}
		c.cc = cc
		err = cc.fold(t, f == nil || pt.all, &c.ws.rec)
		c.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// Record returns the record Next advanced to.
func (c *Cursor) Record() *session.Record { return c.cur }

// Err returns the first error the scan hit, if any.
func (c *Cursor) Err() error { return c.err }

// Close releases the cursor's open segment, if any. Safe to call at
// any point; exhausted cursors are already closed.
func (c *Cursor) Close() error {
	if c.cc == nil {
		return nil
	}
	err := c.cc.close()
	c.cc = nil
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
