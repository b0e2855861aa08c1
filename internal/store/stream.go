package store

import (
	"fmt"
	"sort"
	"time"

	"honeynet/internal/session"
)

// Stream yields every record one at a time in the canonical order the
// figure pipeline depends on, without building the record set in memory
// first (hostile at the paper's 635M sessions): Store.Stream holds one
// open block per live segment of the sequence merge (O(open blocks)),
// Fleet.Stream buffers one month at a time (O(largest month)). A
// consumer that folds records as they arrive — the figure pipeline,
// hncollect — computes byte-identical results from either.

// StreamCursor streams a snapshot of one store in exact global append
// order.
type StreamCursor struct {
	sc    *SeqCursor
	dec   session.JSONDecoder
	arena recArena
	cur   *session.Record
	err   error
}

// Stream returns a cursor over every record in global append order.
// Peak memory is one open block per segment overlapping the merge
// frontier, not the dataset. Records the cursor yields stay valid after
// the next call (they are arena-allocated, never reused).
func (s *Store) Stream() RecordCursor {
	return &StreamCursor{sc: s.ScanSeq(0)}
}

// Next advances to the next record in append order.
func (c *StreamCursor) Next() bool {
	if c.err != nil {
		return false
	}
	if !c.sc.Next() {
		if err := c.sc.Err(); err != nil {
			c.err = err
		}
		c.cur = nil
		return false
	}
	r := c.arena.alloc()
	if err := c.dec.Decode(c.sc.Line(), r); err != nil {
		c.err = fmt.Errorf("store: decoding record: %w", err)
		c.cur = nil
		return false
	}
	c.cur = r
	return true
}

// Record returns the record Next advanced to.
func (c *StreamCursor) Record() *session.Record { return c.cur }

// Err returns the first error the stream hit, if any.
func (c *StreamCursor) Err() error { return c.err }

// Close releases the stream's open segments.
func (c *StreamCursor) Close() error { return c.sc.Close() }

// FleetStream streams a fleet snapshot in the canonical total order —
// (Start, node, seq) — buffering one month at a time instead of the
// whole fleet.
type FleetStream struct {
	f      *Fleet
	months []time.Time
	mi     int
	buf    []*session.Record
	bi     int
	cur    *session.Record
	err    error
}

// Stream returns a cursor over every record across shards in the
// fleet's canonical order. Because Start determines the partition
// month, the global (Start, node, seq) sort decomposes into ascending
// months sorted independently — so only one month is resident at a
// time.
func (f *Fleet) Stream() RecordCursor {
	return &FleetStream{f: f, months: f.Months()}
}

// Next advances to the next record in canonical fleet order.
func (fs *FleetStream) Next() bool {
	if fs.err != nil {
		return false
	}
	for fs.bi >= len(fs.buf) {
		if fs.mi >= len(fs.months) {
			fs.cur = nil
			return false
		}
		if !fs.loadMonth(fs.months[fs.mi]) {
			return false
		}
		fs.mi++
	}
	fs.cur = fs.buf[fs.bi]
	fs.bi++
	return true
}

// loadMonth gathers one month from every shard and sorts it into the
// canonical order. The month's parts across shards decode on runParts
// workers and concatenate in (shard, part) order; a shard's
// month-scoped parts yield its records in sequence order, so the
// within-month (node, arrival) tie-break equals the global (node, seq)
// one restricted to the month.
func (fs *FleetStream) loadMonth(m time.Time) bool {
	p, err := lower(&Query{Where: Cmp(FieldMonth, CmpEq, MonthValue(m))})
	if err != nil {
		fs.err = err
		return false
	}
	jobs := planJobs(p, fs.f.stores(), nil, nil)
	recs := make([][]*session.Record, len(jobs))
	if j, err := runParts(p, jobs, nil, func(j int, c *Cursor) error {
		out := make([]*session.Record, 0, jobs[j].size())
		for c.Next() {
			out = append(out, c.Record())
		}
		recs[j] = out
		return c.Err()
	}); err != nil {
		fs.err = fmt.Errorf("store: fleet shard %s: %w", fs.f.shards[jobs[j].shard].Node, err)
		return false
	}

	type ent struct {
		r     *session.Record
		shard int32
		idx   int32
	}
	n := 0
	for _, rs := range recs {
		n += len(rs)
	}
	ents := make([]ent, 0, n) // in (shard, part) order, so idx ascends within a shard
	for j, rs := range recs {
		for _, r := range rs {
			ents = append(ents, ent{r: r, shard: int32(jobs[j].shard), idx: int32(len(ents))})
		}
	}
	sort.Slice(ents, func(i, j int) bool {
		a, b := ents[i], ents[j]
		if !a.r.Start.Equal(b.r.Start) {
			return a.r.Start.Before(b.r.Start)
		}
		if a.shard != b.shard {
			return fs.f.shards[a.shard].Node < fs.f.shards[b.shard].Node
		}
		return a.idx < b.idx
	})
	fs.buf = fs.buf[:0]
	for _, e := range ents {
		fs.buf = append(fs.buf, e.r)
	}
	fs.bi = 0
	return true
}

// Record returns the record Next advanced to.
func (fs *FleetStream) Record() *session.Record { return fs.cur }

// Err returns the first error the stream hit, if any.
func (fs *FleetStream) Err() error { return fs.err }

// Close is a no-op: month scans close as they finish.
func (fs *FleetStream) Close() error { return nil }
