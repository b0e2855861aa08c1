package store

import (
	"sort"

	"honeynet/internal/session"
)

// ORDER BY/LIMIT pushdown: instead of materializing a whole result and
// sorting it, the sort runs below the aggregation layer as a bounded
// top-k heap over the sort column — the scan streams by, each record is
// keyed once (fieldValue on the sort field), and only the best k
// survivors are retained. Memory is O(limit) regardless of how many
// records match. Without a limit the collector degrades to a full sort
// (it must see everything anyway), still streaming the scan.

// topRow is one retained record with its sort key and arrival index
// (the tie-break, which keeps the order deterministic and stable:
// equal keys come out in store order).
type topRow struct {
	r   *session.Record
	key Value
	idx int64
}

// topK retains the best k rows seen so far in a binary heap whose root
// is the worst retained row — the next to evict.
type topK struct {
	rows []topRow
	k    int // 0 = unbounded: collect everything, sort at the end
	desc bool
	f    Field
	n    int64
}

func newTopK(f Field, desc bool, k int) *topK {
	return &topK{f: f, desc: desc, k: k}
}

// worse reports whether a orders after b in the output (and so is the
// better eviction candidate).
func (t *topK) worse(a, b *topRow) bool {
	c := compareValues(a.key, b.key)
	if t.desc {
		c = -c
	}
	if c != 0 {
		return c > 0
	}
	return a.idx > b.idx
}

// add offers one record to the heap. The record must be arena- or
// caller-owned: it is retained beyond the scan step.
func (t *topK) add(r *session.Record) {
	row := topRow{r: r, key: fieldValue(t.f, r), idx: t.n}
	t.n++
	if t.k > 0 && len(t.rows) == t.k {
		// Full: replace the root only if the newcomer beats it.
		if !t.worse(&row, &t.rows[0]) {
			t.rows[0] = row
			t.siftDown(0)
		}
		return
	}
	t.rows = append(t.rows, row)
	if t.k > 0 {
		t.siftUp(len(t.rows) - 1)
	}
}

func (t *topK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.worse(&t.rows[i], &t.rows[p]) {
			return
		}
		t.rows[i], t.rows[p] = t.rows[p], t.rows[i]
		i = p
	}
}

func (t *topK) siftDown(i int) {
	for {
		l, r, max := 2*i+1, 2*i+2, i
		if l < len(t.rows) && t.worse(&t.rows[l], &t.rows[max]) {
			max = l
		}
		if r < len(t.rows) && t.worse(&t.rows[r], &t.rows[max]) {
			max = r
		}
		if max == i {
			return
		}
		t.rows[i], t.rows[max] = t.rows[max], t.rows[i]
		i = max
	}
}

// finish sorts the retained rows into output order and returns the
// records.
func (t *topK) finish() []*session.Record {
	rows := t.rows
	sort.Slice(rows, func(i, j int) bool { return t.worse(&rows[j], &rows[i]) })
	out := make([]*session.Record, len(rows))
	for i := range rows {
		out[i] = rows[i].r
	}
	return out
}

// collectTopK drains a record cursor through a top-k heap and closes
// it, returning the ordered survivors.
func collectTopK(cur RecordCursor, f Field, desc bool, k int) ([]*session.Record, error) {
	t := newTopK(f, desc, k)
	for cur.Next() {
		t.add(cur.Record())
	}
	if err := cur.Err(); err != nil {
		cur.Close()
		return nil, err
	}
	if err := cur.Close(); err != nil {
		return nil, err
	}
	return t.finish(), nil
}

// sliceCursor adapts an ordered record slice to the RecordCursor
// interface Result streams from.
type sliceCursor struct {
	rows []*session.Record
	cur  *session.Record
}

func (c *sliceCursor) Next() bool {
	if len(c.rows) == 0 {
		c.cur = nil
		return false
	}
	c.cur = c.rows[0]
	c.rows = c.rows[1:]
	return true
}

func (c *sliceCursor) Record() *session.Record { return c.cur }
func (c *sliceCursor) Err() error              { return nil }
func (c *sliceCursor) Close() error            { return nil }
