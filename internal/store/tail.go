package store

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// This file is the outside-in live tail: Follow tails a store or fleet
// directory from another process (polling ReadOnly snapshots), the
// engine behind `hnquery -follow`. The writing process itself rides
// the append signal instead (Watch + ScanSeq, as fleet.Forwarder does).

// Sealing reports whether dir currently holds a WAL rotated aside for a
// background seal. Purely informational — opens are safe mid-seal — but
// useful for operator messaging when an open fails for other reasons.
func Sealing(dir string) bool {
	return exists(filepath.Join(dir, walSealingName))
}

// followMaxFails is how many consecutive polls a shard may fail to open
// before Follow gives up on it. A freshly created node directory has a
// window with no store files yet; a seal in flight renames files
// around; both resolve within a poll or two.
const followMaxFails = 5

type followCursor struct {
	next  uint64
	fails int
}

// Follow tails a store directory — single store or fleet — from
// outside the writing process, invoking fn for every record in
// per-node sequence order as it appears. Each poll re-opens the
// store(s) ReadOnly, streams everything past the per-node cursor, and
// closes; node is "" for a single store and the node id for fleet
// shards. New node-<id> shards are picked up as they appear. Follow
// returns when ctx is done or fn returns an error (which it returns).
//
// Transient open failures (a shard directory still being created, a
// seal mid-rename) are retried for a few polls before surfacing.
func Follow(ctx context.Context, dir string, opts Options, interval time.Duration, fn func(node string, seq uint64, line []byte) error) error {
	opts.ReadOnly = true
	if interval <= 0 {
		interval = time.Second
	}
	cursors := map[string]*followCursor{}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if err := followOnce(dir, opts, cursors, fn); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

// followOnce runs one poll: snapshot every shard and drain it past its
// cursor.
func followOnce(dir string, opts Options, cursors map[string]*followCursor, fn func(node string, seq uint64, line []byte) error) error {
	nodes := []string{""} // a single store is the one shard of no node
	if IsFleetDir(dir) {
		var err error
		if nodes, err = FleetNodes(dir); err != nil {
			return err
		}
	}
	for _, node := range nodes {
		shardDir := dir
		if node != "" {
			shardDir = ShardDir(dir, node)
		}
		cur := cursors[node]
		if cur == nil {
			cur = &followCursor{}
			cursors[node] = cur
		}
		st, err := Open(shardDir, opts)
		if err != nil {
			cur.fails++
			if cur.fails < followMaxFails {
				continue
			}
			return fmt.Errorf("store: follow %s: %w", shardDir, err)
		}
		cur.fails = 0
		err = drainShard(st, node, cur, fn)
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func drainShard(st *Store, node string, cur *followCursor, fn func(node string, seq uint64, line []byte) error) error {
	c := st.ScanSeq(cur.next)
	defer c.Close()
	for c.Next() {
		if err := fn(node, c.Seq(), c.Line()); err != nil {
			return err
		}
		cur.next = c.Seq() + 1
	}
	return c.Err()
}
