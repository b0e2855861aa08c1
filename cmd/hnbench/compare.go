package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
)

// resultSet is what --record accumulates and -compare reads: every
// run of one build, any mix of workloads and seeds.
type resultSet struct {
	Runs []recordedRun `json:"runs"`
}

type recordedRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Go       string  `json:"go"`
	NumCPU   int     `json:"nproc"`
	Result   *result `json:"result"`
	// Slices keeps the per-slice readings the result was reduced from,
	// so a different estimator can be tried on a recorded set.
	Slices []recordedSlice `json:"slices"`
}

type recordedSlice struct {
	OpsPerSec float64 `json:"ops_per_s"`
	P50MS     float64 `json:"latency_p50_ms"`
	CPUPerOp  float64 `json:"cpu_us_per_op"`
	TTQP50MS  float64 `json:"ttq_p50_ms"`
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// appendRun adds one run to the result-set file at path.
func appendRun(path string, cfg config, res *result, slices []sliceStat) error {
	rs, err := readResultSet(path)
	if errors.Is(err, os.ErrNotExist) {
		rs, err = &resultSet{}, nil
	}
	if err != nil {
		return err
	}
	run := recordedRun{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds,
		Trace: cfg.trace, Go: runtime.Version(), NumCPU: runtime.NumCPU(), Result: res}
	ser := seriesOf(slices)
	for i := range slices {
		run.Slices = append(run.Slices, recordedSlice{ser.opsPerSec[i], ser.p50MS[i], ser.cpuPerOp[i], ser.ttqP50MS[i]})
	}
	rs.Runs = append(rs.Runs, run)
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// values returns one end-to-end metric's readings on one workload.
func (rs *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if r.Workload != workload || r.Trace || r.Result == nil {
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareFiles holds result set B against A, one row per workload and
// end-to-end metric, by the bounds this benchmark fixed: B regressed
// when its median is worse than A's by more than the bound. Where
// either set's own interquartile spread is wider than the bound the
// row reads unresolved, never unchanged — unless every run of B beats
// every run of A. It reports false when any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-15s %3s %3s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "nA", "nB", "median A", "median B", "worse", "spreadA", "spreadB", "bound", "verdict")
	counts := map[string]int{}
	for _, wl := range workloadDefs {
		for _, d := range endToEnd {
			va, vb := a.values(wl.name, d.name), b.values(wl.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			// worse is B's change in the bad direction, as a share of A.
			worse := (mb - ma) / ma
			if d.higher {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "unchanged"
			switch {
			case max(sa, sb) > d.bound:
				verdict = "unresolved"
				if allBetter(vb, va, d.higher) {
					verdict = "improved"
				}
			case worse > d.bound:
				verdict = "regressed"
			case worse < -d.bound:
				verdict = "improved"
			}
			counts[verdict]++
			fmt.Fprintf(w, "%-14s %-15s %3d %3d %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.name, d.name, len(va), len(vb), ma, mb, 100*worse, 100*sa, 100*sb, 100*d.bound, verdict)
		}
	}
	fmt.Fprintf(w, "%d unchanged, %d improved, %d regressed, %d unresolved\n",
		counts["unchanged"], counts["improved"], counts["regressed"], counts["unresolved"])
	return counts["regressed"] == 0, nil
}

// allBetter reports whether every reading of b beats every reading of a.
func allBetter(b, a []float64, higher bool) bool {
	if higher {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
