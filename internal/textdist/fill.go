package textdist

import "honeynet/internal/parallel"

// worker is one goroutine's kernel state for a fill: a packer for the
// packed texts, a Scratch for the pairs no pack holds, and the packer's
// output row.
type worker struct {
	p   *packer
	s   Scratch
	out [bitvecMax]float64
}

// prepare interns every text of sets into one ID space, serially, so the
// IDs do not depend on the worker count, and returns them with one
// kernel state per worker.
func prepare(workers int, sets ...[][]string) ([][][]int32, []*worker) {
	in := NewInterner()
	ids := make([][][]int32, len(sets))
	for s, texts := range sets {
		ids[s] = make([][]int32, len(texts))
		for i, t := range texts {
			ids[s][i] = in.Intern(t)
		}
	}
	ws := make([]*worker, parallel.Workers(workers))
	for w := range ws {
		ws[w] = &worker{p: newPacker(in.Len())}
	}
	return ids, ws
}

// merged sums the kernel counters of every worker.
func merged(ws []*worker) KernelStats {
	var st KernelStats
	for _, w := range ws {
		st.Add(w.p.stats)
		st.Add(w.s.stats)
	}
	return st
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
	sets, ws := prepare(workers, texts)
	ids := sets[0]
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
	return merged(ws)
}

// Blocks fills the rows×cols block between every two groups of texts:
// it calls set(g, h, r, c, d) once for every g < h, row r of groups[g]
// and column c of groups[h], with d the normalized token DLD of
// groups[g][r] and groups[h][c], on up to workers goroutines (<= 0 means
// GOMAXPROCS), and returns the kernel counters. set runs concurrently,
// for distinct cells only. Two groups make one rows×cols block; more
// share one interning pass, and no pair inside a group is computed.
//
// A group's short texts are packed, and every row of the groups before
// it runs once per pack; a column no pack holds runs
// Scratch.NormalizedIDs against every row. As with Pairwise, every d is
// bit for bit NormalizedIDs of its pair.
func Blocks(groups [][][]string, workers int, set func(g, h, r, c int, d float64)) KernelStats {
	ids, ws := prepare(workers, groups...)
	// A job is one column of group h that no pack holds (empty, or
	// longer than a word), or one pack of its columns. Long columns go
	// first, because they are the heaviest.
	type job struct {
		h    int
		cols []int
	}
	var jobs, packed []job
	for h := 1; h < len(ids); h++ {
		packs, long := splitPacks(ids[h])
		for _, c := range long {
			jobs = append(jobs, job{h, []int{c}})
		}
		for _, pk := range packs {
			packed = append(packed, job{h, pk})
		}
	}
	nlong := len(jobs)
	jobs = append(jobs, packed...)
	parallel.ForEach(len(jobs), len(ws), 1, func(w, lo, hi int) {
		k := ws[w]
		for x := lo; x < hi; x++ {
			h, cols := jobs[x].h, jobs[x].cols
			if x < nlong {
				b := ids[h][cols[0]]
				for g := range ids[:h] {
					for r, a := range ids[g] {
						set(g, h, r, cols[0], k.s.NormalizedIDs(a, b))
					}
				}
				continue
			}
			k.p.load(ids[h], cols)
			for g := range ids[:h] {
				for r, a := range ids[g] {
					k.p.normalized(a, 0, k.out[:])
					for m, c := range cols {
						set(g, h, r, c, k.out[m])
					}
				}
			}
		}
	})
	return merged(ws)
}
