package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"honeynet/internal/fleet"
	"honeynet/internal/live"
	"honeynet/internal/obs"
	"honeynet/internal/session"
)

// offPath reports whether a span was taken inside one of the program's
// hooks, on one of its goroutines, rather than on a client's.
func offPath(name string) bool { return strings.HasPrefix(name, "bg.") }

// collectorRig is the fleet collector exactly as cmd/hncollect builds
// it: default store options, SyncAck on, the live pipeline fed from the
// post-commit OnRecord hook.
type collectorRig struct {
	dir  string
	srv  *fleet.Server
	live *live.Pipeline
	reg  *obs.Registry
	addr string

	// shardReg holds the shards' counters, registered just before Close
	// so the seal work Close does can still be read after it.
	shardReg []*obs.Registry
	closed   bool
	closeDur time.Duration
}

// startCollector opens a collector over dir. onCommit runs first in
// the OnRecord hook, before the live pipeline, with the hook's entry
// time; it returns the span log to charge the live call to (nil when
// the record's slice is untraced).
func startCollector(dir string, onCommit func(node string, r *session.Record, t time.Time) *spanLog) (*collectorRig, error) {
	c := &collectorRig{dir: dir, live: live.NewPipeline(live.Options{}), reg: obs.NewRegistry()}
	srv, err := fleet.NewServer(dir, fleet.ServerOptions{
		SyncAck: true,
		OnRecord: func(node string, r *session.Record) {
			t := time.Now()
			tr := onCommit(node, r, t)
			c.live.Observe(r)
			if tr != nil {
				tr.add("bg.collector.live_observe", int(r.ID), -1, t, time.Now())
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("collector: %w", err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(fmt.Errorf("collector listen: %w", err), srv.Close())
	}
	srv.Register(c.reg)
	c.live.Register(c.reg)
	c.srv, c.addr = srv, addr.String()
	return c, nil
}

// close stops the collector, sealing every shard.
func (c *collectorRig) close() error {
	if c == nil || c.closed {
		return nil
	}
	c.closed = true
	for _, sh := range c.srv.Fleet().Shards() {
		reg := obs.NewRegistry()
		sh.Store.Register(reg)
		c.shardReg = append(c.shardReg, reg)
	}
	t0 := time.Now()
	err := c.srv.Close()
	c.closeDur = time.Since(t0)
	if err != nil {
		return fmt.Errorf("collector close: %w", err)
	}
	return nil
}

// shardSum adds one store counter across the collector's shards.
func (c *collectorRig) shardSum(name string) float64 {
	sum := 0.0
	for _, reg := range c.shardReg {
		sum += reg.Snapshot()[name]
	}
	return sum
}

// collectorMetrics records what the collector's own counters say once
// it is closed: duplicates, acks, the shards' group-commit and seal
// work, and the sealed directory's size and layout.
func (c *collectorRig) collectorMetrics(m metricSet, records int) error {
	snap := c.reg.Snapshot()
	m["fleet.duplicates"] = snap["honeynet_fleet_duplicate_total"]
	m["fleet.acks"] = snap["honeynet_fleet_acks_sent_total"]
	if b := snap["honeynet_fleet_batches_received_total"]; b > 0 {
		m["fleet.recs_per_batch"] = snap["honeynet_fleet_received_total"] / b
	}
	if f := c.shardSum("honeynet_store_batch_flushes_total"); f > 0 {
		m["store.batch_flushes"] = f
		m["store.batch_records_avg"] = c.shardSum("honeynet_store_batch_records_total") / f
	}
	if n := c.shardSum("honeynet_store_batch_records_total"); n > 0 {
		m["store.wal_bytes_per_rec"] = c.shardSum("honeynet_store_batch_bytes_total") / n
	}
	m["store.seals_background"] = c.shardSum("honeynet_store_seal_background_total")
	m["store.seal_blocks"] = c.shardSum("honeynet_store_seal_blocks_total")
	m["store.seal_s"] = c.closeDur.Seconds()
	liveMetrics(m, c.live, snap)
	return dirMetrics(m, c.dir, records)
}

// liveMetrics records a live pipeline's work ratios.
func liveMetrics(m metricSet, p *live.Pipeline, snap map[string]float64) {
	s := p.Snapshot()
	m["live.reclusters"] = float64(s.Reclusters)
	if s.Clustered > 0 {
		m["live.assign_kernel_per_dl"] = float64(s.Kernel) / float64(s.Clustered)
	}
	if tot := s.Kernel + s.Pruned; tot > 0 {
		m["live.assign_pruned_ratio"] = float64(s.Pruned) / float64(tot)
	}
	skipped, cand := snap["honeynet_live_rules_skipped_total"], snap["honeynet_live_rule_candidates_total"]
	if skipped+cand > 0 {
		m["live.rules_skipped_ratio"] = skipped / (skipped + cand)
	}
}

// dirMetrics records a sealed fleet directory's size per record, its
// segment count and the newest segment layout found in it.
func dirMetrics(m metricSet, dir string, records int) error {
	var bytes, segBytes int64
	segments, version := 0, 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
		if filepath.Ext(path) != ".hns" {
			return nil
		}
		segments++
		segBytes += info.Size()
		v, err := segmentVersion(path)
		if err != nil {
			return err
		}
		version = max(version, v)
		return nil
	})
	if err != nil {
		return fmt.Errorf("measure %s: %w", dir, err)
	}
	if records > 0 {
		m["bytes_per_rec"] = float64(bytes) / float64(records)
		m["store.sealed_bytes_per_rec"] = float64(segBytes) / float64(records)
	}
	m["store.segments"] = float64(segments)
	m["store.format_version"] = float64(version)
	return nil
}

// segmentVersion reads a segment file's magic: HNSTORE1, 2 or 3.
func segmentVersion(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if string(magic[:7]) != "HNSTORE" || magic[7] < '1' || magic[7] > '9' {
		return 0, fmt.Errorf("%s: not a segment file", path)
	}
	return int(magic[7] - '0'), nil
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}
