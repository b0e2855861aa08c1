package textdist

import "honeynet/internal/parallel"

// worker is one goroutine's kernel state for a fill: a packer for the
// packed texts, a Scratch for the pairs no pack holds, and the packer's
// output row.
type worker struct {
	p   packer
	s   Scratch
	out [bitvecMax]float64
}

// Pairwise calls set(i, j, d) once for every unordered pair of distinct
// indices of texts, in either order, with d the normalized token DLD of
// texts[i] and texts[j], on up to workers goroutines (<= 0 means
// GOMAXPROCS), and returns the kernel counters. set runs concurrently,
// for distinct pairs only.
//
// Texts of 1..64 tokens are packed side by side (splitPacks), and every
// text runs once per pack instead of once per pair; a pair of texts
// neither of which packs (empty or longer) runs Scratch.NormalizedIDs.
// Each d is a pure function of its pair, bit for bit what NormalizedIDs
// returns, so the result is the same for every worker count.
func Pairwise(texts [][]string, workers int, set func(i, j int, d float64)) KernelStats {
	// Intern serially, so the IDs do not depend on the worker count.
	in := NewInterner()
	ids := make([][]int32, len(texts))
	for i, t := range texts {
		ids[i] = in.Intern(t)
	}
	ws := make([]*worker, parallel.Workers(workers))
	for w := range ws {
		ws[w] = new(worker)
	}
	packs, long := splitPacks(ids)
	// One job per long text (its pairs with the long texts after it),
	// first because they are the heaviest, then one per pack.
	parallel.ForEach(len(long)+len(packs), len(ws), 1, func(w, lo, hi int) {
		k := ws[w]
		for job := lo; job < hi; job++ {
			if job < len(long) {
				i := long[job]
				for _, j := range long[job+1:] {
					set(i, j, k.s.NormalizedIDs(ids[i], ids[j]))
				}
				continue
			}
			cur := job - len(long)
			pk := packs[cur]
			k.p.load(ids, pk)
			run := func(i, from int) {
				k.p.normalized(ids[i], from, k.out[:])
				for m := from; m < len(pk); m++ {
					set(i, pk[m], k.out[m])
				}
			}
			// A short text fills its cells with the members after it:
			// every text of an earlier pack, and this pack's own members
			// with the ones after them.
			for _, prev := range packs[:cur] {
				for _, i := range prev {
					run(i, 0)
				}
			}
			for m, i := range pk[:len(pk)-1] {
				run(i, m+1)
			}
			for _, i := range long {
				run(i, 0)
			}
		}
	})
	var st KernelStats
	for _, w := range ws {
		st.Add(w.p.stats)
		st.Add(w.s.stats)
	}
	return st
}
