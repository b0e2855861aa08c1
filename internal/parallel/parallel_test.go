package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS", got)
	}
	// A GOMAXPROCS cap is a cap on every pool sized by default.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := Workers(0); got != 1 {
		t.Errorf("Workers(0) under GOMAXPROCS=1 = %d, want 1", got)
	}
}

// TestForEachCoversEveryIndexOnce: every index in [0, n) is visited
// exactly once for any (workers, grain) combination.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 8, 33} {
			for _, grain := range []int{0, 1, 3, 64, 2000} {
				visits := make([]int32, n)
				ForEach(n, workers, grain, func(w, lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Fatalf("bad chunk [%d,%d) for n=%d", lo, hi, n)
					}
					if w < 0 || w >= Workers(workers) {
						t.Fatalf("worker %d out of range", w)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("n=%d workers=%d grain=%d: index %d visited %d times",
							n, workers, grain, i, v)
					}
				}
			}
		}
	}
}

// TestForEachSerialOrder: with a single worker the chunks run inline in
// ascending order — the serial reference semantics reductions rely on.
func TestForEachSerialOrder(t *testing.T) {
	var seen []int
	ForEach(10, 1, 3, func(w, lo, hi int) {
		if w != 0 {
			t.Fatalf("serial path used worker %d", w)
		}
		for i := lo; i < hi; i++ {
			seen = append(seen, i)
		}
	})
	for i, v := range seen {
		if v != i {
			t.Fatalf("serial order broken: %v", seen)
		}
	}
	if len(seen) != 10 {
		t.Fatalf("covered %d indices", len(seen))
	}
}

// TestForEachDeterministicSlots: index-addressed writes give identical
// results across worker counts.
func TestForEachDeterministicSlots(t *testing.T) {
	const n = 512
	ref := make([]int, n)
	ForEach(n, 1, 16, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			ref[i] = i * i
		}
	})
	for _, workers := range []int{2, 4, 16} {
		got := make([]int, n)
		ForEach(n, workers, 16, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = i * i
			}
		})
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}
