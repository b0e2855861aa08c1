// Package parallel is the multicore execution layer shared by the
// analysis and simulation hot paths: a small deterministic worker pool
// over index ranges.
//
// The cardinal design constraint is that every consumer must produce
// results that are byte-identical regardless of the worker count or
// GOMAXPROCS. The pool supports that by (a) passing each invocation a
// stable worker index so callers can keep per-worker scratch state, and
// (b) leaving all result placement to the caller, who writes into
// index-addressed slots and performs any floating-point reduction in
// canonical index order afterwards.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count setting: values <= 0 select
// runtime.GOMAXPROCS(0), so every pool honours a GOMAXPROCS cap.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach partitions the index range [0, n) into contiguous chunks of at
// most grain indices and executes fn(worker, lo, hi) over every chunk
// using up to `workers` goroutines. Chunks are claimed dynamically (an
// atomic cursor), which load-balances triangular or otherwise skewed
// work without affecting determinism: which worker computes a chunk can
// vary between runs, but the chunk boundaries cannot, and callers only
// write to index-addressed slots.
//
// fn must not write to any location another chunk writes. The worker
// argument is in [0, workers) and identifies the executing goroutine so
// callers can reuse per-worker scratch buffers.
//
// With workers <= 1 (or a single chunk) the chunks run inline on the
// calling goroutine, in order — the serial reference path.
func ForEach(n, workers, grain int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(0, lo, hi)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				c := int(cursor.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(worker, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}
