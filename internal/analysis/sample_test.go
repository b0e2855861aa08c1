package analysis

import (
	"testing"

	"honeynet/internal/cluster"
)

// freshWorld clones the shared test dataset into a world with a cold
// sample memo (the memo lives on the World, so tests that need a real
// rebuild must not share testWorld's).
func freshWorld(t *testing.T) *World {
	t.Helper()
	w := testWorld(t)
	return &World{
		Records:    w.Records,
		Registry:   w.Registry,
		AbuseDB:    w.AbuseDB,
		Classifier: w.Classifier,
	}
}

// TestDLDSampleMemo: the same (SampleSize, Seed) must return the
// identical sample object; a different key must rebuild.
func TestDLDSampleMemo(t *testing.T) {
	w := freshWorld(t)
	cfg := ClusterConfig{SampleSize: 200, Seed: 5}
	a, err := w.DLDSample(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.DLDSample(ClusterConfig{K: 40, SampleSize: 200, Seed: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same sampling key did not reuse the memoized sample")
	}
	c, err := w.DLDSample(ClusterConfig{SampleSize: 150, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different SampleSize reused the memoized sample")
	}
}

// TestSubmatrix: the extracted submatrix must equal the source cells.
func TestSubmatrix(t *testing.T) {
	m := cluster.NewMatrix(5)
	v := 0.0
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			v += 0.125
			m.Set(i, j, v)
		}
	}
	idx := []int{0, 2, 4}
	sub := submatrix(m, idx)
	if sub.N != 3 {
		t.Fatalf("sub.N = %d", sub.N)
	}
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if sub.At(a, b) != m.At(idx[a], idx[b]) {
				t.Errorf("sub(%d,%d) = %v, want %v", a, b, sub.At(a, b), m.At(idx[a], idx[b]))
			}
		}
	}
}

// TestRunClusteringSharesMatrix: RunClustering and SelectK over the same
// config must share one matrix instance (the reuse the scheduler and
// k-sweep rely on).
func TestRunClusteringSharesMatrix(t *testing.T) {
	w := freshWorld(t)
	cfg := ClusterConfig{K: 20, SampleSize: 200, Seed: 5}
	cres, err := RunClustering(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := w.DLDSample(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Matrix != smp.Matrix {
		t.Error("RunClustering did not reuse the shared sample matrix")
	}
	if _, err := SelectK(w, []int{2, 5, 10}, 100, 5, cfg); err != nil {
		t.Fatal(err)
	}
}
