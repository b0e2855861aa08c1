package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"honeynet/internal/session"
)

// Fleet mode: a collector holds one shard — a complete, independent
// Store — per edge node, under node-<id> subdirectories of one fleet
// directory. This file is the scatter-gather query layer over those
// shards: the same RunQuery/Stream surface as a single Store (Reader),
// with results merged across shards by (time, node, seq), so the
// analysis pipeline runs unchanged — and byte-identically — against a
// fleet directory.

const (
	// FleetMarkerName marks a directory as a fleet of per-node shards.
	FleetMarkerName = "FLEET.json"
	// nodeDirPrefix prefixes each shard's subdirectory: node-<id>.
	nodeDirPrefix = "node-"
)

// Shard pairs one node's id with its store.
type Shard struct {
	Node  string
	Store *Store
}

// Fleet is a read view over per-node shards, ordered by node id.
type Fleet struct {
	shards []Shard
}

// IsFleetDir reports whether dir holds a fleet of per-node shards
// rather than a single store: the FLEET.json marker is authoritative,
// and a directory of node-<id> shards without store files of its own
// also qualifies (a collector killed before writing the marker).
func IsFleetDir(dir string) bool {
	if _, err := os.Stat(filepath.Join(dir, FleetMarkerName)); err == nil {
		return true
	}
	if exists(filepath.Join(dir, manifestName)) || exists(filepath.Join(dir, walName)) {
		return false
	}
	nodes, _ := FleetNodes(dir)
	for _, node := range nodes {
		sub := ShardDir(dir, node)
		if exists(filepath.Join(sub, manifestName)) || exists(filepath.Join(sub, walName)) {
			return true
		}
	}
	return false
}

// FleetNodes returns the node ids of the shard directories under the
// fleet directory dir, sorted: every subdirectory node-<id> whose id
// passes ValidNodeID (a collector never creates any other).
func FleetNodes(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir) // sorted by name, so by id
	if err != nil {
		return nil, err
	}
	var nodes []string
	for _, e := range entries {
		if id, ok := strings.CutPrefix(e.Name(), nodeDirPrefix); ok && e.IsDir() && ValidNodeID(id) {
			nodes = append(nodes, id)
		}
	}
	return nodes, nil
}

// WriteFleetMarker stamps dir as a fleet directory (idempotent).
func WriteFleetMarker(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, FleetMarkerName)
	if exists(path) {
		return nil
	}
	if err := os.WriteFile(path, []byte("{\"version\":1}\n"), 0o644); err != nil {
		return err
	}
	return syncDir(dir)
}

// ShardDir returns the shard directory for one node id under a fleet
// directory.
func ShardDir(dir, node string) string {
	return filepath.Join(dir, nodeDirPrefix+node)
}

// ValidNodeID restricts node ids to names that are safe as directory
// components on every platform: [A-Za-z0-9._-], non-empty, at most 64
// bytes, not starting with a dot or dash.
func ValidNodeID(id string) bool {
	if id == "" || len(id) > 64 || id[0] == '.' || id[0] == '-' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Reader is the read surface a Store and a Fleet share: structured
// queries, the full record stream in canonical order, and Close.
type Reader interface {
	RunQuery(*Query) (*Result, error)
	Stream() RecordCursor
	Close() error
}

// OpenDir opens dir read-only for querying, as a fleet of per-node
// shards when IsFleetDir says so and as a single store otherwise.
func OpenDir(dir string) (Reader, error) {
	opts := Options{ReadOnly: true}
	if IsFleetDir(dir) {
		fl, err := OpenFleet(dir, opts)
		if err != nil {
			return nil, err
		}
		return fl, nil
	}
	st, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// OpenFleet opens every node-<id> shard under dir with opts. Shards
// are ordered by node id, so every fleet-wide result is deterministic.
func OpenFleet(dir string, opts Options) (*Fleet, error) {
	nodes, err := FleetNodes(dir)
	if err != nil {
		return nil, err
	}
	f := &Fleet{}
	for _, node := range nodes {
		st, err := Open(ShardDir(dir, node), opts)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("store: fleet shard %s: %w", node, err)
		}
		f.shards = append(f.shards, Shard{Node: node, Store: st})
	}
	if len(f.shards) == 0 {
		return nil, fmt.Errorf("store: %s: no node-<id> shards", dir)
	}
	return f, nil
}

// NewFleet builds a fleet view over already-open shards (a live
// collector's, typically). The caller keeps ownership of the stores;
// Close on the returned fleet closes them, so callers sharing stores
// should not call it.
func NewFleet(shards []Shard) *Fleet {
	f := &Fleet{shards: append([]Shard(nil), shards...)}
	f.sortShards()
	return f
}

func (f *Fleet) sortShards() {
	sort.Slice(f.shards, func(i, j int) bool { return f.shards[i].Node < f.shards[j].Node })
}

// Shards returns the fleet's shards, ordered by node id.
func (f *Fleet) Shards() []Shard { return f.shards }

// stores lists the shards' stores in shard order: the inputs of the
// part executor.
func (f *Fleet) stores() []*Store {
	out := make([]*Store, len(f.shards))
	for i, sh := range f.shards {
		out[i] = sh.Store
	}
	return out
}

// Close closes every shard.
func (f *Fleet) Close() error {
	var err error
	for _, sh := range f.shards {
		if cerr := sh.Store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Len returns the total record count across shards.
func (f *Fleet) Len() int {
	n := 0
	for _, sh := range f.shards {
		n += sh.Store.Len()
	}
	return n
}

// Months returns the sorted distinct partition months across shards.
func (f *Fleet) Months() []time.Time {
	seen := map[time.Time]bool{}
	var out []time.Time
	for _, sh := range f.shards {
		for _, m := range sh.Store.Months() {
			if !seen[m] {
				seen[m] = true
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// FleetCursor merges per-shard cursors: months ascend fleet-wide, and
// within a month the shard heads are merged by (Start, node, seq) —
// the fleet's canonical record order. When each shard's within-month
// stream is itself time-ordered, the merged stream is totally ordered
// by (time, node, seq); shards whose append order ran ahead of session
// start times interleave deterministically (heads compared on every
// step) but only locally ordered. A FleetCursor is not safe for
// concurrent use.
type FleetCursor struct {
	curs  []*Cursor // parallel to nodes
	nodes []string
	heads []*session.Record // nil = exhausted
	cur   *session.Record
	err   error
}

// scatter opens one cursor per shard and merges them.
func (f *Fleet) scatter(open func(*Store) *Cursor) *FleetCursor {
	c := &FleetCursor{
		curs:  make([]*Cursor, len(f.shards)),
		nodes: make([]string, len(f.shards)),
		heads: make([]*session.Record, len(f.shards)),
	}
	for i, sh := range f.shards {
		c.curs[i] = open(sh.Store)
		c.nodes[i] = sh.Node
		c.advance(i)
	}
	return c
}

// advance refills shard i's head from its cursor.
func (c *FleetCursor) advance(i int) {
	if c.curs[i].Next() {
		c.heads[i] = c.curs[i].Record()
		return
	}
	c.heads[i] = nil
	if err := c.curs[i].Err(); err != nil && c.err == nil {
		c.err = fmt.Errorf("store: shard %s: %w", c.nodes[i], err)
	}
}

// Next advances to the next record in merge order. It returns false at
// the end of the scan or on error (see Err).
func (c *FleetCursor) Next() bool {
	if c.err != nil {
		return false
	}
	best := -1
	for i, h := range c.heads {
		if h == nil {
			continue
		}
		if best < 0 || headLess(h, c.nodes[i], c.heads[best], c.nodes[best]) {
			best = i
		}
	}
	if best < 0 {
		c.cur = nil
		return false
	}
	c.cur = c.heads[best]
	// A refill error surfaces on the following Next; the record already
	// selected is still valid.
	c.advance(best)
	return true
}

// headLess orders two shard heads by (month, Start, node). The seq
// tiebreak is implicit: within one shard, records already come in seq
// order.
func headLess(a *session.Record, an string, b *session.Record, bn string) bool {
	am, bm := a.Month(), b.Month()
	if !am.Equal(bm) {
		return am.Before(bm)
	}
	if !a.Start.Equal(b.Start) {
		return a.Start.Before(b.Start)
	}
	return an < bn
}

// Record returns the record Next advanced to.
func (c *FleetCursor) Record() *session.Record { return c.cur }

// Err returns the first error the scan hit, if any.
func (c *FleetCursor) Err() error { return c.err }

// Close releases every shard cursor.
func (c *FleetCursor) Close() error {
	var err error
	for _, cur := range c.curs {
		if cerr := cur.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
