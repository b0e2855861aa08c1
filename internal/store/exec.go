package store

import (
	"sort"
	"sync/atomic"

	"honeynet/internal/parallel"
)

// The parallel part executor. A statement that folds every record it
// reads — an aggregate, a fleet month load — plans serially, shard by
// shard (planParts: zone pruning, Bloom probes, metadata folds), and
// then reads what is left as one job per (shard, part) on
// GOMAXPROCS workers. Jobs are dispatched largest first; each job
// writes only its own slots, and the caller combines them in job order
// — canonical (shard, part) order — so rows, float sums and the
// first error reported do not depend on the worker count. Row
// statements (LIMIT, ORDER BY top-k, Follow) stream and stay serial.

// partJob is one part of one shard that a statement reads.
type partJob struct {
	shard int
	s     *Store
	part  part
}

// size is the job's record count, the key of largest-first dispatch.
func (j *partJob) size() int {
	if j.part.seg != nil {
		return j.part.seg.Records
	}
	return len(j.part.tail)
}

// planJobs plans p over every store in order and lists the parts left
// to read as jobs. stats[i], when stats is non-nil, receives shard i's
// planning statistics; tab, when non-nil, takes the metadata folds.
func planJobs(p *plan, stores []*Store, tab *aggTable, stats []*PlanStats) []partJob {
	var jobs []partJob
	for i, s := range stores {
		var st *PlanStats
		if stats != nil {
			st = stats[i]
		}
		for _, pt := range s.planParts(p, tab, st) {
			jobs = append(jobs, partJob{shard: i, s: s, part: pt})
		}
	}
	return jobs
}

// runParts calls fn once per job with a cursor over the job's one part,
// on up to GOMAXPROCS workers. Every cursor of a worker decodes with
// that worker's decoder, record arena or scratch record, and v3
// scratch. stats, when non-nil, holds one PlanStats per job. A failed
// job stops the jobs after it in job order from starting; runParts
// returns the index and error of the first failing job in job order,
// or -1 and nil. With one job or one worker everything runs on the
// calling goroutine.
func runParts(p *plan, jobs []partJob, stats []PlanStats, fn func(j int, c *Cursor) error) (int, error) {
	if len(jobs) == 0 {
		return -1, nil
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].size() > jobs[order[b]].size() })
	workers := min(parallel.Workers(0), len(jobs))
	scratch := make([]scanScratch, workers)
	errs := make([]error, len(jobs))
	var failed atomic.Int64 // lowest failing job index so far
	failed.Store(int64(len(jobs)))
	parallel.ForEach(len(order), workers, 1, func(w, lo, hi int) {
		ws := &scratch[w]
		for _, j := range order[lo:hi] {
			if int64(j) > failed.Load() {
				continue
			}
			job := &jobs[j]
			if ws.col == nil && job.part.seg != nil {
				ws.col = acquireColScratch()
			}
			c := &Cursor{s: job.s, p: p, parts: []part{job.part}, ws: ws}
			if stats != nil {
				c.stats = &stats[j]
			}
			err := fn(j, c)
			c.Close()
			if err == nil {
				continue
			}
			errs[j] = err
			for f := failed.Load(); int64(j) < f && !failed.CompareAndSwap(f, int64(j)); f = failed.Load() {
			}
		}
	})
	for i := range scratch {
		if scratch[i].col != nil {
			releaseColScratch(scratch[i].col)
		}
	}
	for j, err := range errs {
		if err != nil {
			return j, err
		}
	}
	return -1, nil
}

// aggregate executes an aggregation plan over stores — a Store's own
// RunQuery passes itself as the one shard. Segments the metadata
// answers fold into the table while planning; every other part folds
// into a table of its own on a runParts worker (Cursor.fold: values
// from the block where it holds them, no record kept), which also sorts
// the table's distinct quads, and those tables merge in part order.
// stats[i] receives shard i's plan statistics. On error it also returns
// the failing shard's index.
func (p *plan) aggregate(stores []*Store, stats []*PlanStats) (*aggTable, int, error) {
	tab := newAggTable(p.q.GroupBy, p.q.Aggs)
	meta := tab
	if p.splits == nil {
		meta = nil
	}
	jobs := planJobs(p, stores, meta, stats)
	if meta != nil && p.ip == "" {
		for _, st := range stats {
			switch {
			case st.ScannedSegments == 0:
				st.Mode = "metadata"
			case st.MetaSegments > 0:
				st.Mode = "hybrid"
			}
		}
	}
	tabs := make([]*aggTable, len(jobs))
	jst := make([]PlanStats, len(jobs))
	if j, err := runParts(p, jobs, jst, func(j int, c *Cursor) error {
		tabs[j] = newAggTable(p.q.GroupBy, p.q.Aggs)
		err := c.fold(tabs[j])
		tabs[j].sortDistinct()
		return err
	}); err != nil {
		return nil, jobs[j].shard, err
	}
	for j, t := range tabs {
		tab.merge(t)
		stats[jobs[j].shard].add(&jst[j])
	}
	return tab, -1, nil
}
