package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the repository-root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables in
// metrics.go: same workloads, same metrics, same units, directions and
// bounds, names the driver accepts.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, metrics.go %d", len(b.Workloads), len(workloadDefs))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, metrics.go %q", i, w.Name, workloadDefs[i].name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better(d) {
				t.Errorf("%s %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound mismatch", kind, g.Name)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s name %q is malformed or repeated", kind, g.Name)
			}
			seen[g.Name] = true
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// smoke runs one workload at 1/100 size for a fixed number of slices.
func smoke(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, _, err := run(config{workload: workload, seed: 7, trace: trace,
		size: 100, slices: 4, setups: 1, tmpRoot: t.TempDir(), log: io.Discard}, nil)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func checkMetrics(t *testing.T, workload string, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s: %s not emitted", workload, d.name)
		} else if v.Unit != d.unit {
			t.Errorf("%s: %s emitted in %q, declared %q", workload, d.name, v.Unit, d.unit)
		}
	}
}

// TestSmoke runs every workload small, untraced and traced twice: each
// declared metric is emitted once with its unit, every end-to-end
// metric is non-zero, and the counted metrics repeat exactly.
func TestSmoke(t *testing.T) {
	counted := []string{"shell.cmds_per_session", "store.blocks_read_per_round", "textdist.dld_pairs"}
	for _, w := range workloadDefs {
		t.Run(w.name, func(t *testing.T) {
			e2e := smoke(t, w.name, false)
			checkMetrics(t, w.name, e2e, endToEnd)
			for _, d := range endToEnd {
				if e2e.Metrics[d.name].Value <= 0 {
					t.Errorf("%s is %v", d.name, e2e.Metrics[d.name].Value)
				}
			}
			a, b := smoke(t, w.name, true), smoke(t, w.name, true)
			checkMetrics(t, w.name, a, perLayer)
			if a.Attempted != b.Attempted || a.Attempted != e2e.Attempted {
				t.Errorf("ops_attempted %d, %d, %d across three runs of one seed", e2e.Attempted, a.Attempted, b.Attempted)
			}
			for _, name := range counted {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %v then %v with the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// TestCompareRepeatSets holds the comparer to the two same-code result
// sets it was validated on: nothing regressed, nothing unresolved.
func TestCompareRepeatSets(t *testing.T) {
	ok, err := compareFiles(io.Discard, "testdata/repeat_a.json", "testdata/repeat_b.json")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("repeat_b regressed against repeat_a: two runs of the same code")
	}
}

func TestQuietMean(t *testing.T) {
	vals := []float64{5, 1, 9, 3, 7, 2, 8, 4}
	if got := quietMean(vals, true); got != 8.5 {
		t.Errorf("quietMean higher = %v, want 8.5", got)
	}
	if got := quietMean(vals, false); got != 1.5 {
		t.Errorf("quietMean lower = %v, want 1.5", got)
	}
}
