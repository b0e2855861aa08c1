package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"honeynet/internal/session"
)

// TestSeqStreamUnderConcurrentSeal is the replication surface's race
// test: NextSeq, Watch, and ScanSeq hammered while a writer appends
// with aggressive auto-sealing, so every cursor straddles seals in
// flight. Run with -race this is primarily a data-race detector; the
// assertions check the drain-then-recheck contract (no sequence ever
// missed, no line ever corrupt).
func TestSeqStreamUnderConcurrentSeal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{tuning: tuning{sealBytes: 4 << 10, syncEvery: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 3000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := s.Append(mkRecord(i%3, i)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()

	// Reader 1: watch-driven incremental scans (the fleet forwarder's
	// loop), verifying dense sequences and parseable lines.
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := s.Watch()
		var dec session.JSONDecoder
		var next uint64
		for next < n {
			c := s.ScanSeq(next)
			for c.Next() {
				if c.Seq() != next {
					t.Errorf("sequence gap: got %d, want %d", c.Seq(), next)
					c.Close()
					return
				}
				var r session.Record
				if err := dec.Decode(c.Line(), &r); err != nil {
					t.Errorf("seq %d: bad line: %v", c.Seq(), err)
					c.Close()
					return
				}
				next = c.Seq() + 1
			}
			if err := c.Err(); err != nil {
				t.Errorf("scan: %v", err)
				c.Close()
				return
			}
			c.Close()
			if next == n || s.NextSeq() > next {
				continue // done, or more to scan: no signal to wait for
			}
			select {
			case <-w:
			case <-time.After(5 * time.Second):
				t.Errorf("watch starved at seq %d", next)
				return
			}
		}
	}()

	// Reader 2: cold scans from random-ish offsets while seals churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			from := uint64(i * 37)
			c := s.ScanSeq(from)
			want := from
			for c.Next() {
				if c.Seq() != want {
					t.Errorf("cold scan from %d: got %d, want %d", from, c.Seq(), want)
					c.Close()
					return
				}
				want++
			}
			if err := c.Err(); err != nil {
				t.Errorf("cold scan: %v", err)
			}
			c.Close()
		}
	}()

	// Reader 3: NextSeq must be monotonic under concurrent appends+seals.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev uint64
		for i := 0; i < 5000; i++ {
			if ns := s.NextSeq(); ns < prev {
				t.Errorf("NextSeq went backwards: %d after %d", ns, prev)
				return
			} else {
				prev = ns
			}
		}
	}()

	wg.Wait()
	if got := s.NextSeq(); got != n {
		t.Fatalf("NextSeq = %d, want %d", got, n)
	}
}

// tail is an in-process live reader over the store's append signal,
// the way fleet.Forwarder consumes it: stream every record with
// sequence >= from, then block on Watch for new appends and stream
// those, until ctx is done or fn returns an error.
func tail(ctx context.Context, s *Store, from uint64, fn func(seq uint64, line []byte) error) error {
	w := s.Watch()
	next := from
	for {
		c := s.ScanSeq(next)
		for c.Next() {
			if err := fn(c.Seq(), c.Line()); err != nil {
				c.Close()
				return err
			}
			next = c.Seq() + 1
		}
		err := c.Err()
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		// Drain-then-recheck per the Watch contract: an append landing
		// after the NextSeq check leaves a signal in w for the select.
		if s.NextSeq() > next {
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-w:
		}
	}
}

// TestTailStreamsLiveAppends: a Watch + ScanSeq reader must deliver
// history, then block and deliver new appends, across a seal boundary,
// in dense order.
func TestTailStreamsLiveAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{tuning: manual})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Append(mkRecord(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total = 120
	var got atomic.Uint64
	var dec session.JSONDecoder
	done := make(chan error, 1)
	go func() {
		done <- tail(ctx, s, 0, func(seq uint64, line []byte) error {
			if seq != got.Load() {
				return errors.New("gap")
			}
			var r session.Record
			if err := dec.Decode(line, &r); err != nil {
				return err
			}
			got.Store(seq + 1)
			if seq == total-1 {
				cancel()
			}
			return nil
		})
	}()

	for i := 50; i < total; i++ {
		if err := s.Append(mkRecord(0, i)); err != nil {
			t.Fatal(err)
		}
		if i == 80 {
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("tail returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("tail hung at seq %d", got.Load())
	}
	if got.Load() != total {
		t.Fatalf("tailed %d records, want %d", got.Load(), total)
	}
}

// TestTailPropagatesCallbackError: a reader that stops mid-scan (its
// callback failed) closes the cursor and leaves the store appendable.
func TestTailPropagatesCallbackError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{tuning: manual})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(mkRecord(0, 1)); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	err = tail(context.Background(), s, 0, func(uint64, []byte) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("tail returned %v, want sentinel", err)
	}
	if err := s.Append(mkRecord(0, 2)); err != nil {
		t.Fatalf("append after an abandoned scan: %v", err)
	}
}

// TestFollowSingleStore tails a store written by "another process"
// (a separate writable handle on the same dir).
func TestFollowSingleStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{tuning: manual})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 30; i++ {
		if err := s.Append(mkRecord(0, i)); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var seqs []uint64
	done := make(chan error, 1)
	go func() {
		done <- Follow(ctx, dir, Options{}, 20*time.Millisecond, func(node string, seq uint64, line []byte) error {
			if node != "" {
				return errors.New("single store yielded node " + node)
			}
			mu.Lock()
			seqs = append(seqs, seq)
			n := len(seqs)
			mu.Unlock()
			if n == 60 {
				cancel()
			}
			return nil
		})
	}()

	// Keep writing (with a seal) while the follower polls.
	for i := 30; i < 60; i++ {
		if err := s.Append(mkRecord(0, i)); err != nil {
			t.Fatal(err)
		}
		if i == 45 {
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Follow returned %v", err)
		}
	case <-time.After(15 * time.Second):
		mu.Lock()
		t.Fatalf("Follow hung after %d records", len(seqs))
	}
	for i, seq := range seqs {
		if seq != uint64(i) {
			t.Fatalf("seqs[%d] = %d — not dense", i, seq)
		}
	}
}

// TestFollowFleetDiscoversShards: a fleet follower must pick up shards
// that appear after it started.
func TestFollowFleetDiscoversShards(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFleetMarker(dir); err != nil {
		t.Fatal(err)
	}
	openShard := func(node string) *Store {
		s, err := Open(ShardDir(dir, node), Options{tuning: manual})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := openShard("edge-a")
	defer a.Close()
	for i := 0; i < 10; i++ {
		if err := a.Append(mkRecord(0, i)); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	counts := map[string]int{}
	done := make(chan error, 1)
	go func() {
		done <- Follow(ctx, dir, Options{}, 20*time.Millisecond, func(node string, seq uint64, line []byte) error {
			mu.Lock()
			counts[node]++
			full := counts["edge-a"] == 10 && counts["edge-b"] == 5
			mu.Unlock()
			if full {
				cancel()
			}
			return nil
		})
	}()

	// Second shard appears mid-follow.
	time.Sleep(50 * time.Millisecond)
	b := openShard("edge-b")
	defer b.Close()
	for i := 0; i < 5; i++ {
		if err := b.Append(mkRecord(1, i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Follow returned %v", err)
		}
	case <-time.After(15 * time.Second):
		mu.Lock()
		t.Fatalf("Follow hung with counts %v", counts)
	}
}

// TestSealingHelper: the mid-seal marker probe.
func TestSealingHelper(t *testing.T) {
	dir := t.TempDir()
	if Sealing(dir) {
		t.Fatal("empty dir reported as sealing")
	}
	if err := os.WriteFile(filepath.Join(dir, walSealingName), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !Sealing(dir) {
		t.Fatal("wal-sealing.jsonl present but Sealing() false")
	}
}
