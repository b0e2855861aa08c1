// Package cluster implements K-medoids clustering over a precomputed
// distance matrix, plus the elbow (WCSS) and silhouette diagnostics the
// paper combines to pick k=90 (section 6).
//
// The paper describes "K-Means ... using the pairwise distance matrix";
// with a non-Euclidean metric like token DLD the centroid of a cluster is
// not a session, so the standard formulation is K-medoids (PAM): cluster
// centers are actual sessions and assignment/update steps minimize the
// sum of distances to the medoid. That is what "K-Means over a distance
// matrix" computes in practice.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"honeynet/internal/parallel"
)

// Matrix is a symmetric pairwise distance matrix.
type Matrix struct {
	N int
	// d holds the upper triangle, row-major: d[i][j] for j>i at
	// index(i,j).
	d []float64
}

// NewMatrix allocates an n×n zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, d: make([]float64, n*(n-1)/2)}
}

func (m *Matrix) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Offset of row i in the packed upper triangle.
	return i*m.N - i*(i+1)/2 + (j - i - 1)
}

// Set stores the distance between items i and j.
func (m *Matrix) Set(i, j int, v float64) {
	if i == j {
		return
	}
	m.d[m.idx(i, j)] = v
}

// At returns the distance between items i and j (0 on the diagonal).
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		return 0
	}
	return m.d[m.idx(i, j)]
}

// Fill computes all pairwise distances with dist, row by row over the
// upper triangle: the order d is packed in.
func Fill(n int, dist func(i, j int) float64) *Matrix {
	m := NewMatrix(n)
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.d[k] = dist(i, j)
			k++
		}
	}
	return m
}

// Result is a clustering outcome.
type Result struct {
	K       int
	Medoids []int
	// Assign[i] is the cluster index of item i.
	Assign []int
	// WCSS is the within-cluster sum of squared distances to medoids.
	WCSS float64
}

// Sizes returns per-cluster member counts.
func (r *Result) Sizes() []int {
	sizes := make([]int, r.K)
	for _, c := range r.Assign {
		sizes[c]++
	}
	return sizes
}

// Members returns the item indices of cluster c.
func (r *Result) Members(c int) []int {
	var out []int
	for i, a := range r.Assign {
		if a == c {
			out = append(out, i)
		}
	}
	return out
}

// Config tunes KMedoids.
type Config struct {
	// MaxIter bounds the assign/update loop (default 50).
	MaxIter int
	// Seed makes initialization deterministic.
	Seed int64
	// RandomInit uses random medoid seeding instead of the default
	// deterministic farthest-point ("k-means++"-style) seeding — the
	// seeding ablation in DESIGN.md.
	RandomInit bool
	// Workers caps the goroutines used by the assignment, update, and
	// scoring loops (<= 0 means runtime.GOMAXPROCS(0), 1 is fully serial).
	// Results are identical for every value: the parallel loops write
	// index-addressed slots and all floating-point reductions run in
	// canonical index order.
	Workers int
}

func (c Config) maxIter() int {
	if c.MaxIter > 0 {
		return c.MaxIter
	}
	return 50
}

// KMedoids partitions n items into k clusters using the distance matrix.
// The assignment and update steps fan out over cfg.Workers goroutines;
// the result is identical for every worker count (each item's and each
// cluster's inner scan stays serial, so every float is accumulated in
// the same order as the serial path).
func KMedoids(m *Matrix, k int, cfg Config) (*Result, error) {
	n := m.N
	if k <= 0 || k > n {
		return nil, fmt.Errorf("cluster: k=%d out of range for n=%d", k, n)
	}
	workers := parallel.Workers(cfg.Workers)
	rng := rand.New(rand.NewSource(cfg.Seed))

	medoids := make([]int, 0, k)
	if cfg.RandomInit {
		perm := rng.Perm(n)
		medoids = append(medoids, perm[:k]...)
	} else {
		medoids = farthestPointInit(m, k, workers)
	}

	assign := make([]int, n)
	for iter := 0; iter < cfg.maxIter(); iter++ {
		// Assignment step: items are independent.
		var changed atomic.Bool
		parallel.ForEach(n, workers, 256, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				best, bestD := 0, m.At(i, medoids[0])
				for c := 1; c < k; c++ {
					if d := m.At(i, medoids[c]); d < bestD {
						best, bestD = c, d
					}
				}
				if assign[i] != best {
					assign[i] = best
					changed.Store(true)
				}
			}
		})
		if iter > 0 && !changed.Load() {
			break
		}
		// Update step: each cluster's medoid becomes the member with the
		// minimal total distance to the other members. Clusters are
		// independent; each writes only medoids[c].
		parallel.ForEach(k, workers, 1, func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				bestItem, bestSum := medoids[c], -1.0
				for i := 0; i < n; i++ {
					if assign[i] != c {
						continue
					}
					sum := 0.0
					for j := 0; j < n; j++ {
						if assign[j] == c {
							sum += m.At(i, j)
						}
					}
					if bestSum < 0 || sum < bestSum {
						bestItem, bestSum = i, sum
					}
				}
				medoids[c] = bestItem
			}
		})
	}

	res := &Result{K: k, Medoids: medoids, Assign: assign}
	for i := 0; i < n; i++ {
		d := m.At(i, medoids[assign[i]])
		res.WCSS += d * d
	}
	return res, nil
}

// farthestPointInit picks the first medoid as the item with the minimal
// total distance (the dataset's most central item), then greedily adds
// the item farthest from all chosen medoids — deterministic given the
// matrix. The O(n²) total-distance pass shards across workers; the
// argmin reduction runs in index order afterwards.
func farthestPointInit(m *Matrix, k, workers int) []int {
	n := m.N
	medoids := make([]int, 0, k)

	rowSums := make([]float64, n)
	parallel.ForEach(n, workers, 64, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += m.At(i, j)
			}
			rowSums[i] = sum
		}
	})
	best, bestSum := 0, -1.0
	for i := 0; i < n; i++ {
		if bestSum < 0 || rowSums[i] < bestSum {
			best, bestSum = i, rowSums[i]
		}
	}
	medoids = append(medoids, best)

	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = m.At(i, best)
	}
	for len(medoids) < k {
		far, farD := 0, -1.0
		for i := 0; i < n; i++ {
			if minDist[i] > farD {
				far, farD = i, minDist[i]
			}
		}
		medoids = append(medoids, far)
		for i := 0; i < n; i++ {
			if d := m.At(i, far); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return medoids
}

// Silhouette computes the mean silhouette coefficient of a clustering:
// for each item, (b-a)/max(a,b) where a is the mean intra-cluster
// distance and b the smallest mean distance to another cluster. Items of
// singleton clusters are left out.
func Silhouette(m *Matrix, res *Result) float64 {
	n := m.N
	if n == 0 || res.K < 2 {
		return 0
	}
	sizes := res.Sizes()
	sums := make([]float64, res.K)
	total := 0.0
	counted := 0
	for i := 0; i < n; i++ {
		ci := res.Assign[i]
		if sizes[ci] <= 1 {
			continue // silhouette undefined for singletons
		}
		clear(sums)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			sums[res.Assign[j]] += m.At(i, j)
		}
		a := sums[ci] / float64(sizes[ci]-1)
		b := -1.0
		for c := 0; c < res.K; c++ {
			if c == ci || sizes[c] == 0 {
				continue
			}
			v := sums[c] / float64(sizes[c])
			if b < 0 || v < b {
				b = v
			}
		}
		if b < 0 {
			continue
		}
		if hi := max(a, b); hi > 0 {
			total += (b - a) / hi
		}
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// Sweep runs KMedoids for each k in ks and returns the WCSS and
// silhouette series used for the elbow/silhouette model selection.
type SweepPoint struct {
	K          int
	WCSS       float64
	Silhouette float64
}

// SweepK evaluates the clustering quality across candidate cluster
// counts. Sweep points are independent — each k runs its own KMedoids
// from the same seed — so they evaluate concurrently on cfg.Workers
// goroutines, each writing its own result slot. The first error in k
// order wins, matching the serial contract.
func SweepK(m *Matrix, ks []int, cfg Config) ([]SweepPoint, error) {
	out := make([]SweepPoint, len(ks))
	errs := make([]error, len(ks))
	// Each sweep point already saturates one core; parallelize across
	// points and keep each KMedoids run serial inside.
	inner := cfg
	inner.Workers = 1
	parallel.ForEach(len(ks), parallel.Workers(cfg.Workers), 1, func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			res, err := KMedoids(m, ks[x], inner)
			if err != nil {
				errs[x] = err
				continue
			}
			out[x] = SweepPoint{K: ks[x], WCSS: res.WCSS, Silhouette: Silhouette(m, res)}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Elbow picks the sweep point with the maximal curvature of the WCSS
// series (largest second difference) — the "elbow point" heuristic.
func Elbow(points []SweepPoint) int {
	if len(points) < 3 {
		if len(points) == 0 {
			return 0
		}
		return points[0].K
	}
	sorted := append([]SweepPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].K < sorted[j].K })
	bestK, bestCurv := sorted[1].K, -1.0
	for i := 1; i < len(sorted)-1; i++ {
		curv := sorted[i-1].WCSS - 2*sorted[i].WCSS + sorted[i+1].WCSS
		if curv > bestCurv {
			bestCurv = curv
			bestK = sorted[i].K
		}
	}
	return bestK
}
