package analysis

import (
	"os"
	"path/filepath"
	"testing"

	"honeynet/internal/cluster"
	"honeynet/internal/obs"
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

func sameMatrix(t *testing.T, a, b *cluster.Matrix) {
	t.Helper()
	if a.N != b.N {
		t.Fatalf("matrix size %d != %d", a.N, b.N)
	}
	for i := 0; i < a.N; i++ {
		for j := i + 1; j < a.N; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("matrix differs at (%d,%d): %v != %v", i, j, a.At(i, j), b.At(i, j))
			}
		}
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

// TestMatrixDiskCache: a second world over the same dataset and cache
// directory must load the stored matrix byte-identically, and a corrupt
// entry must be recomputed, not trusted.
func TestMatrixDiskCache(t *testing.T) {
	dir := t.TempDir()
	cfg := ClusterConfig{SampleSize: 200, Seed: 5}

	w1 := freshWorld(t)
	w1.MatrixCache = dir
	s1, err := w1.DLDSample(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1.FromCache {
		t.Fatal("first build reported FromCache")
	}
	entries, err := filepath.Glob(filepath.Join(dir, "dldm-*.bin"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries = %v (err %v), want exactly one", entries, err)
	}

	w2 := freshWorld(t)
	w2.MatrixCache = dir
	s2, err := w2.DLDSample(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.FromCache {
		t.Fatal("second build did not hit the cache")
	}
	sameMatrix(t, s1.Matrix, s2.Matrix)

	// Corrupt the entry: the loader must reject it and recompute.
	if err := os.WriteFile(entries[0], []byte("HNDLDM1\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	w3 := freshWorld(t)
	w3.MatrixCache = dir
	w3.Tracer = obs.NewTracer()
	s3, err := w3.DLDSample(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s3.FromCache {
		t.Fatal("corrupt cache entry was trusted")
	}
	sameMatrix(t, s1.Matrix, s3.Matrix)
	// ...and the person running -timings must be able to see that.
	var tags map[string]int64
	for _, ph := range w3.Tracer.Phases() {
		if ph.Name == "cluster.dld-matrix" {
			tags = ph.Tags
		}
	}
	if tags["cache_errors"] != 1 || tags["cache_misses"] != 1 {
		t.Errorf("corrupt entry: dld-matrix tags = %v, want cache_errors=1 cache_misses=1", tags)
	}

	// w3 rewrote a valid entry. One flipped bit in its body, at the right
	// length, must be caught too.
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len("HNDLDM2\n")+4+8*3+2] ^= 0x10
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w4 := freshWorld(t)
	w4.MatrixCache = dir
	w4.Tracer = obs.NewTracer()
	s4, err := w4.DLDSample(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s4.FromCache {
		t.Fatal("an entry with a flipped bit was trusted")
	}
	sameMatrix(t, s1.Matrix, s4.Matrix)
	for _, ph := range w4.Tracer.Phases() {
		if ph.Name == "cluster.dld-matrix" && ph.Tags["cache_errors"] != 1 {
			t.Errorf("flipped bit: dld-matrix tags = %v, want cache_errors=1", ph.Tags)
		}
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
