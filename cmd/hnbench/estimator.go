package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// sliceStat is what one equal-work slice of the measured window saw.
// Every timed end-to-end metric is computed per slice first and only
// then reduced across slices (see quietMean), because interference on
// a shared box is one-sided and bursty: it makes slices slower, never
// faster.
type sliceStat struct {
	ops    int
	failed int
	wall   time.Duration
	cpu    time.Duration // process user+sys over the slice
	sys    time.Duration // the system share of cpu
	lat    []float64     // per-op latency, ms
	ttq    []float64     // per-op time-to-queryable, ms
	traced bool
}

func (s *sliceStat) opsPerSec() float64 { return float64(s.ops) / s.wall.Seconds() }
func (s *sliceStat) cpuPerOp() float64 {
	return float64(s.cpu.Microseconds()) / float64(s.ops)
}

// series is the per-slice readings of the four timed end-to-end
// metrics, one entry per slice.
type series struct {
	opsPerSec, p50MS, cpuPerOp, ttqP50MS []float64
}

func seriesOf(slices []sliceStat) series {
	var s series
	for i := range slices {
		sl := &slices[i]
		s.opsPerSec = append(s.opsPerSec, sl.opsPerSec())
		s.p50MS = append(s.p50MS, median(sl.lat))
		s.cpuPerOp = append(s.cpuPerOp, sl.cpuPerOp())
		s.ttqP50MS = append(s.ttqP50MS, median(sl.ttq))
	}
	return s
}

// quietMean is the quiet-quartile mean: the mean of the best
// ceil(n/4) values — the highest when higher is better, the lowest
// otherwise. The best quarter of a run's slices are the ones no
// neighbour disturbed; their mean repeats across runs where the
// all-slice median does not (README, "The estimator").
func quietMean(vals []float64, higherBetter bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if higherBetter {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			s[i], s[j] = s[j], s[i]
		}
	}
	k := (len(s) + 3) / 4
	return mean(s[:k])
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation; vals need not be sorted and is not modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// spread is the interquartile range as a share of the median — the
// run-to-run spread the comparer holds against a metric's bound. The
// quartiles are Python's statistics.quantiles(vals, n=4), the rule the
// driver applies, which reaches past the data a little on small sets.
func spread(vals []float64) float64 {
	med := median(vals)
	if len(vals) < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / math.Abs(med)
}

// cpuTime is the process's user+system CPU so far. It includes the
// in-process load generator; see README, "What cpu_us_per_op counts".
func cpuTime() time.Duration {
	u, s := cpuTimes()
	return u + s
}

// cpuTimes is cpuTime split into user and system time.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
