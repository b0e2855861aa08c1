package cluster

import "testing"

// randomMatrix builds an n×n matrix with pseudo-random distances derived
// from the pair indices.
func randomMatrix(n int, seed int64) *Matrix {
	return Fill(n, func(i, j int) float64 {
		h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0x85ebca77c2b2ae63 + uint64(j)*0xc2b2ae3d27d4eb4f
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return float64(h%100000) / 100000
	})
}

var workerCounts = []int{1, 2, 8}

// TestKMedoidsWorkerInvariance: clustering output (assignments, medoids,
// WCSS bits) must not depend on the worker count.
func TestKMedoidsWorkerInvariance(t *testing.T) {
	m := randomMatrix(160, 7)
	ref, err := KMedoids(m, 12, Config{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts[1:] {
		got, err := KMedoids(m, 12, Config{Seed: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.WCSS != ref.WCSS {
			t.Errorf("workers=%d: WCSS %v != %v", workers, got.WCSS, ref.WCSS)
		}
		for i := range ref.Assign {
			if got.Assign[i] != ref.Assign[i] {
				t.Fatalf("workers=%d: assignment %d differs", workers, i)
			}
		}
		for c := range ref.Medoids {
			if got.Medoids[c] != ref.Medoids[c] {
				t.Fatalf("workers=%d: medoid %d differs", workers, c)
			}
		}
	}
	// RandomInit must be worker-invariant too (rng is consumed before any
	// parallel section).
	a, _ := KMedoids(m, 12, Config{Seed: 3, RandomInit: true, Workers: 1})
	b, _ := KMedoids(m, 12, Config{Seed: 3, RandomInit: true, Workers: 8})
	if a.WCSS != b.WCSS {
		t.Errorf("RandomInit WCSS differs across workers: %v vs %v", a.WCSS, b.WCSS)
	}
}

// TestSweepKWorkerInvariance: the sweep's points must be identical in
// order and value at every worker count.
func TestSweepKWorkerInvariance(t *testing.T) {
	m := randomMatrix(90, 13)
	ks := []int{2, 4, 8, 16, 32}
	ref, err := SweepK(m, ks, Config{Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range workerCounts[1:] {
		got, err := SweepK(m, ks, Config{Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(ref))
		}
		for x := range ref {
			if got[x] != ref[x] {
				t.Errorf("workers=%d: point %d = %+v, want %+v", workers, x, got[x], ref[x])
			}
		}
	}
	// Errors still surface from the parallel sweep.
	if _, err := SweepK(m, []int{2, 1000}, Config{Seed: 9, Workers: 4}); err == nil {
		t.Error("out-of-range k must fail")
	}
}
