package live

import (
	"math/rand"

	"honeynet/internal/cluster"
	"honeynet/internal/textdist"
)

// assigner is the online cluster-assignment engine: every observed
// download session is assigned to its nearest medoid under the hybrid
// token-DLD kernel (one row of kernel calls, most of them discarded by
// the multiset lower bound before any DP), per-cluster assignment
// distance is tracked as the drift signal, and when the mean silhouette
// over a reservoir sample decays past the floor the medoid set is
// rebuilt by a bounded K-medoids run over the reservoir.
//
// All state mutations happen under the Pipeline's lock (the interner,
// scratch, and reservoir RNG are not concurrency-safe); given a fixed
// seed and arrival order every decision — assignment, reservoir
// content, re-clustering — is deterministic.
type assigner struct {
	interner *textdist.Interner
	scratch  *textdist.Scratch
	rng      *rand.Rand

	// held is how many distinct tokens the medoid and reservoir texts
	// held at the last interner rebuild (see compactInterner);
	// keepInterner turns the rebuild off, for tests that compare
	// against an assigner that never rebuilds.
	held         int
	keepInterner bool

	maxClusters    int
	newClusterDist float64
	silhouetteMin  float64
	recheckEvery   int

	medoids []medoidState

	// reservoir is a uniform sample of the observed token streams
	// (algorithm R), the input to silhouette checks and re-clustering.
	reservoir []sampleItem
	seen      int64 // observations offered to the reservoir

	// matrix holds the reservoir's pairwise distances as of the last
	// drift check; stale marks the slots (re)filled since, whose rows
	// are all the next check has to recompute.
	matrix *cluster.Matrix
	stale  []bool

	sinceCheck int
	silhouette float64 // last computed reservoir silhouette (NaN-free; 0 before first check)

	// counters (read under the Pipeline lock or via snapshot).
	assigned   int64
	pruned     int64 // medoid candidates discarded by the multiset lower bound
	kernel     int64 // full kernel evaluations
	reclusters int64
	checks     int64
}

// medoidState is one live cluster: its exemplar plus running
// assignment-distance drift.
type medoidState struct {
	text   string
	tokens []int32
	count  int64
	// sumDist accumulates assignment distances since the medoid was
	// (re)installed; sumDist/count is the drift signal surfaced on /live.
	sumDist float64
}

type sampleItem struct {
	text   string
	tokens []int32
}

func newAssigner(maxClusters, reservoir int, newClusterDist, silhouetteMin float64, recheckEvery int, seed int64) *assigner {
	return &assigner{
		interner:       textdist.NewInterner(),
		scratch:        textdist.NewScratch(),
		rng:            rand.New(rand.NewSource(seed)),
		maxClusters:    maxClusters,
		newClusterDist: newClusterDist,
		silhouetteMin:  silhouetteMin,
		recheckEvery:   recheckEvery,
		reservoir:      make([]sampleItem, 0, reservoir),
		stale:          make([]bool, reservoir),
	}
}

// Interner bounds: the interner is rebuilt once it holds more than
// internSlack times the distinct tokens the retained texts held at the
// last rebuild, counting at least internFloor of them.
const (
	internSlack = 4
	internFloor = 1024
)

// observe assigns one session text to a cluster, returning the cluster
// index and the assignment distance. Caller holds the Pipeline lock.
func (a *assigner) observe(text string) (int, float64) {
	a.compactInterner()
	tokens := a.interner.Intern(textdist.Tokenize(text))
	a.sample(text, tokens)

	best, bestDist := a.nearest(tokens)
	// A session far from every medoid founds a new cluster (leader
	// step) until the cap; past the cap it joins the nearest anyway.
	if (best < 0 || bestDist > a.newClusterDist) && len(a.medoids) < a.maxClusters {
		a.medoids = append(a.medoids, medoidState{text: text, tokens: tokens, count: 1})
		a.assigned++
		return len(a.medoids) - 1, 0
	}
	if best < 0 {
		return -1, 0 // no medoids and none allowed (MaxClusters 0)
	}
	m := &a.medoids[best]
	m.count++
	m.sumDist += bestDist
	a.assigned++

	a.sinceCheck++
	if a.recheckEvery > 0 && a.sinceCheck >= a.recheckEvery {
		a.sinceCheck = 0
		a.maybeRecluster()
	}
	return best, bestDist
}

// compactInterner keeps the interner from growing with every token ever
// observed (a fresh file name per download session is common): once it
// outgrows the tokens the medoids and the reservoir still hold, their
// texts are re-interned into a fresh interner. Distances compare token
// IDs only for equality, so every distance, assignment, reservoir
// matrix cell and recluster is the same as without the rebuild.
func (a *assigner) compactInterner() {
	if a.keepInterner || a.interner.Len() <= internSlack*max(a.held, internFloor) {
		return
	}
	in := textdist.NewInterner()
	for i := range a.medoids {
		a.medoids[i].tokens = in.Intern(textdist.Tokenize(a.medoids[i].text))
	}
	for i := range a.reservoir {
		a.reservoir[i].tokens = in.Intern(textdist.Tokenize(a.reservoir[i].text))
	}
	a.interner, a.held = in, in.Len()
}

// nearest returns the closest medoid index and its normalized distance,
// pruning with the O(la+lb) multiset lower bound: a medoid whose bound
// already meets the best distance so far cannot win, so the kernel
// never runs for it. Iteration is in medoid order, ties keep the first
// — deterministic for a fixed arrival order.
func (a *assigner) nearest(tokens []int32) (int, float64) {
	best, bestDist := -1, 0.0
	for i := range a.medoids {
		mt := a.medoids[i].tokens
		if best >= 0 {
			if lb := a.scratch.NormalizedLowerBoundIDs(tokens, mt); lb >= bestDist {
				a.pruned++
				continue
			}
		}
		d := a.scratch.NormalizedIDs(tokens, mt)
		a.kernel++
		if best < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// sample offers one observation to the reservoir (algorithm R).
func (a *assigner) sample(text string, tokens []int32) {
	a.seen++
	if len(a.reservoir) < cap(a.reservoir) {
		a.stale[len(a.reservoir)] = true
		a.reservoir = append(a.reservoir, sampleItem{text: text, tokens: tokens})
		return
	}
	if cap(a.reservoir) == 0 {
		return
	}
	if j := a.rng.Int63n(a.seen); j < int64(len(a.reservoir)) {
		a.stale[j] = true
		a.reservoir[j] = sampleItem{text: text, tokens: tokens}
	}
}

// reservoirMatrix brings the persistent distance matrix up to date with
// the reservoir and returns it. Only pairs with a stale slot are
// recomputed, each with the lower slot as the kernel's first argument,
// so every cell holds exactly what a from-scratch build would put there.
func (a *assigner) reservoirMatrix() *cluster.Matrix {
	n := len(a.reservoir)
	m := a.matrix
	if m == nil || m.N != n {
		// The reservoir grew (it never shrinks): the packed layout
		// depends on N, so carry the old cells into a matrix of the new
		// size. The new slots are already marked stale.
		m = cluster.NewMatrix(n)
		if old := a.matrix; old != nil {
			for i := 0; i < old.N; i++ {
				for j := i + 1; j < old.N; j++ {
					m.Set(i, j, old.At(i, j))
				}
			}
		}
		a.matrix = m
	}
	for s := 0; s < n; s++ {
		if !a.stale[s] {
			continue
		}
		for t := 0; t < n; t++ {
			// A pair of two stale slots is computed from its lower one.
			if t == s || (t < s && a.stale[t]) {
				continue
			}
			i, j := min(s, t), max(s, t)
			m.Set(i, j, a.scratch.NormalizedIDs(a.reservoir[i].tokens, a.reservoir[j].tokens))
		}
	}
	clear(a.stale)
	return m
}

// maybeRecluster scores the current medoid set by mean silhouette over
// the reservoir and, when it has decayed past the floor, replaces the
// medoids with a bounded K-medoids run over the reservoir.
func (a *assigner) maybeRecluster() {
	n := len(a.reservoir)
	k := len(a.medoids)
	if n < 4 || k < 2 || k >= n {
		return
	}
	a.checks++
	m := a.reservoirMatrix()
	// Label each reservoir point with its nearest current medoid; the
	// silhouette of that labeling over the reservoir matrix is the
	// drift score for the live medoid set.
	res := &cluster.Result{K: k, Assign: make([]int, n)}
	for i := 0; i < n; i++ {
		c, _ := a.nearest(a.reservoir[i].tokens)
		res.Assign[i] = c
	}
	a.silhouette = cluster.SilhouetteParallel(m, res, 1)
	if a.silhouette >= a.silhouetteMin {
		return
	}
	fresh, err := cluster.KMedoids(m, k, cluster.Config{Seed: 1, Workers: 1})
	if err != nil {
		return
	}
	medoids := make([]medoidState, 0, k)
	for _, idx := range fresh.Medoids {
		it := a.reservoir[idx]
		medoids = append(medoids, medoidState{text: it.text, tokens: it.tokens})
	}
	a.medoids = medoids
	a.reclusters++
	a.silhouette = cluster.SilhouetteParallel(m, fresh, 1)
}
