// The figure table and its dependency-aware scheduler. The table is
// the one place a figure is named, titled, parameterised and wired to
// its analyzer; Run renders one entry of it, RunAll every entry. Every
// analyzer reads the immutable dataset and its own scratch state, so
// independent figures run concurrently; only the two cluster figures
// wait on an earlier stage (the section 6 K-medoids pipeline). Each
// task renders into a private buffer and the buffers are flushed in
// table order, so the output is byte-identical for any worker count.
package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"honeynet/internal/analysis"
	"honeynet/internal/botnet"
	"honeynet/internal/report"
)

// runState carries the cross-task values: the analysis world plus the
// clustering result the cluster stage hands to its dependent figures.
// cres is written by the cluster stage and read only by clustered
// figures (the scheduler's completion signaling orders the accesses).
type runState struct {
	w    *analysis.World
	ccfg analysis.ClusterConfig
	cres *analysis.ClusterResult
	// full is set when one figure was asked for by name, not as part
	// of "all".
	full bool
	csv  bool
}

// figure is one entry of the figure table.
type figure struct {
	// name is the tracer phase ("fig."+name) the entry is timed under.
	name string
	// selectors are the -fig values that pick the entry. A single
	// selector renders every table of the entry; several name its
	// tables one each, in order.
	selectors []string
	// clustered entries wait on the K-medoids stage and read s.cres.
	clustered bool
	// onDemand entries are not part of "all".
	onDemand bool
	tables   func(s *runState) ([]*report.Table, error)
}

// one adapts the common entry: an infallible analyzer, one table.
func one(f func(w *analysis.World) *report.Table) func(*runState) ([]*report.Table, error) {
	return func(s *runState) ([]*report.Table, error) {
		return []*report.Table{f(s.w)}, nil
	}
}

// clusterStage is the section 6 K-medoids pipeline. It renders nothing;
// plan schedules it ahead of the first clustered figure.
func clusterStage() *figure {
	return &figure{name: "cluster", tables: func(s *runState) ([]*report.Table, error) {
		cres, err := analysis.RunClustering(s.w, s.ccfg)
		if err != nil {
			return nil, fmt.Errorf("core: clustering: %w", err)
		}
		s.cres = cres
		return nil, nil
	}}
}

// figures returns the table. Slice order IS output order: the flusher
// concatenates buffers by index, reproducing the paper's figure
// sequence exactly.
func figures() []figure {
	return []figure{
		{name: "stats", selectors: []string{"stats"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Stats(w).Table()
		})},
		{name: "fig1", selectors: []string{"1"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Fig1Table(analysis.Fig1(w))
		})},
		{name: "fig2", selectors: []string{"2"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.SharesTable("Figure 2: non-state-changing sessions, top bots/month", analysis.Fig2(w), 8)
		})},
		{name: "fig3a", selectors: []string{"3a"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.SharesTable("Figure 3a: file add/modify/delete without exec", analysis.Fig3a(w), 8)
		})},
		{name: "fig3b", selectors: []string{"3b"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.SharesTable("Figure 3b: file-execution sessions", analysis.Fig3b(w), 8)
		})},
		{name: "fig4", selectors: []string{"4a", "4b"}, tables: func(s *runState) ([]*report.Table, error) {
			f4 := analysis.Fig4(s.w)
			return []*report.Table{
				analysis.SharesTable("Figure 4a: exec sessions, file exists", f4.Exists, 8),
				analysis.SharesTable("Figure 4b: exec sessions, file missing", f4.Missing, 8),
			}, nil
		}},
		{name: "fig5", selectors: []string{"5"}, clustered: true, tables: func(s *runState) ([]*report.Table, error) {
			rows := 12 // "all" prints the largest clusters, -fig 5 every one
			if s.full {
				rows = 0
			}
			return []*report.Table{s.cres.Fig5Table(rows)}, nil
		}},
		{name: "fig6", selectors: []string{"6"}, clustered: true, tables: func(s *runState) ([]*report.Table, error) {
			return []*report.Table{analysis.Fig6Table(s.cres.Fig6(5))}, nil
		}},
		{name: "storage", selectors: []string{"storage"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Storage(w).Table()
		})},
		{name: "fig7", selectors: []string{"7"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Fig7(w).Table()
		})},
		{name: "fig8", selectors: []string{"8"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Fig8Table(analysis.Fig8(w))
		})},
		{name: "fig9", selectors: []string{"9"}, tables: func(s *runState) ([]*report.Table, error) {
			var out []*report.Table
			for _, rc := range []struct {
				name string
				days int
			}{{"1-week", 7}, {"4-week", 28}, {"1-year", 365}, {"all", 0}} {
				out = append(out, analysis.Fig9Table("Figure 9 ("+rc.name+" recall): storage IP activity days", analysis.Fig9(s.w, rc.days)))
			}
			return out, nil
		}},
		{name: "fig10", selectors: []string{"10"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Fig10(w, 5).Table()
		})},
		{name: "fig11", selectors: []string{"11"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Fig11(w).Table()
		})},
		{name: "fig12", selectors: []string{"12"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Fig12Table(analysis.Fig12(w))
		})},
		{name: "mdrfckr", selectors: []string{"13", "mdrfckr"}, tables: func(s *runState) ([]*report.Table, error) {
			cs := analysis.Mdrfckr(s.w, botnet.MdrfckrKeyHash())
			return []*report.Table{cs.Fig13Table(), cs.Table()}, nil
		}},
		{name: "events", selectors: []string{"events"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.EventsTable(analysis.EventCorrelation(w))
		})},
		{name: "fig14", selectors: []string{"14"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Fig14(w, 10).Table()
		})},
		{name: "fig16", selectors: []string{"16"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Fig16Table(analysis.Fig16(w))
		})},
		{name: "fig17", selectors: []string{"17"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Fig17Table(analysis.Fig17(w))
		})},
		{name: "table1", selectors: []string{"table1"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.Table1(w).Table()
		})},
		{name: "appc", selectors: []string{"appc"}, tables: one(func(w *analysis.World) *report.Table {
			return analysis.CurlProxy(w).Table()
		})},
		{name: "kselect", selectors: []string{"kselect"}, onDemand: true, tables: func(s *runState) ([]*report.Table, error) {
			sel, err := analysis.SelectK(s.w, []int{10, 20, 40, 60, 90, 120, 150}, 400, 42, s.ccfg)
			if err != nil {
				return nil, err
			}
			return []*report.Table{sel.Table()}, nil
		}},
	}
}

// Selectors lists every figure selector Run accepts, in output order.
func Selectors() []string {
	var out []string
	for _, f := range figures() {
		out = append(out, f.selectors...)
	}
	return append(out, "all")
}

// task is one scheduled table entry: the tasks it waits on (indices
// into the plan) and which of its tables to render (-1 for all).
type task struct {
	*figure
	deps []int
	pick int
}

// plan returns the tasks a selector names, in table order, with the
// K-medoids stage scheduled ahead of the first figure that needs it.
func plan(selector string) ([]task, error) {
	var tasks []task
	stage := -1
	add := func(f *figure, pick int) {
		var deps []int
		if f.clustered {
			if stage < 0 {
				stage = len(tasks)
				tasks = append(tasks, task{figure: clusterStage(), pick: -1})
			}
			deps = []int{stage}
		}
		tasks = append(tasks, task{figure: f, deps: deps, pick: pick})
	}
	table := figures()
	for i := range table {
		f := &table[i]
		if selector == "all" {
			if !f.onDemand {
				add(f, -1)
			}
			continue
		}
		for j, sel := range f.selectors {
			switch {
			case sel != selector:
			case len(f.selectors) == 1:
				add(f, -1)
			default:
				add(f, j)
			}
		}
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("unknown figure %q (have %s)", selector, strings.Join(Selectors(), ", "))
	}
	return tasks, nil
}

// render runs one task and writes the tables it selects the one way
// every mode prints them: aligned text and a blank line, or CSV.
func (t *task) render(s *runState, buf *bytes.Buffer) error {
	tabs, err := t.tables(s)
	if err != nil {
		return err
	}
	if t.pick >= 0 {
		tabs = tabs[t.pick : t.pick+1]
	}
	for _, tab := range tabs {
		if s.csv {
			buf.WriteString(tab.CSV())
		} else {
			fmt.Fprintln(buf, tab.String())
		}
	}
	return nil
}

// schedule runs the plan on up to `workers` goroutines. A task becomes
// runnable when all its dependencies completed; no worker ever blocks
// on an incomplete dependency, so the pool is deadlock-free at any size
// (including 1, which degenerates to serial table order). When a
// dependency fails, its dependents are skipped and inherit the error.
// Returns per-task buffers and errors indexed like tasks.
func schedule(tasks []task, s *runState, workers int) ([]bytes.Buffer, []error) {
	n := len(tasks)
	bufs := make([]bytes.Buffer, n)
	errs := make([]error, n)
	indeg := make([]int, n)
	dependents := make([][]int, n)
	for i, t := range tasks {
		indeg[i] = len(t.deps)
		for _, d := range t.deps {
			dependents[d] = append(dependents[d], i)
		}
	}
	// Buffered to n: every enqueue below is non-blocking, so completing
	// a task never stalls behind a full channel while holding the lock.
	ready := make(chan int, n)
	for i, d := range indeg {
		if d == 0 {
			ready <- i
		}
	}
	var mu sync.Mutex
	pending := n
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				// errs[i] was pre-set (under mu, before this task was
				// enqueued) iff a dependency failed; skip its body then.
				if errs[i] == nil {
					sp := s.w.Tracer.Span("fig." + tasks[i].name)
					errs[i] = tasks[i].render(s, &bufs[i])
					sp.End()
				}
				mu.Lock()
				pending--
				for _, j := range dependents[i] {
					if errs[i] != nil && errs[j] == nil {
						errs[j] = errs[i]
					}
					indeg[j]--
					if indeg[j] == 0 {
						ready <- j
					}
				}
				if pending == 0 {
					close(ready)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return bufs, errs
}
