// Package botnet models every named bot and campaign the paper observes:
// its activity schedule over Dec 2021 – Aug 2024, its credentials, its
// client-IP pool, and the exact command sequences it executes after
// login. The simulator (internal/simulate) turns these models into
// session records; the examples drive the same models over real SSH.
package botnet

import (
	"math/rand"
	"time"
)

// Observation window of the paper's dataset.
var (
	WindowStart = time.Date(2021, 12, 1, 0, 0, 0, 0, time.UTC)
	WindowEnd   = time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC)
)

// D is a shorthand constructing a UTC date.
func D(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// Window is one activity interval with a mean session rate per day at
// paper scale (the honeynet's full 221-node volume).
type Window struct {
	From, To time.Time
	Rate     float64
}

// Schedule is a piecewise-constant activity profile. Overlapping windows
// add.
type Schedule []Window

// Rate returns the expected sessions/day on the given day.
func (s Schedule) Rate(day time.Time) float64 {
	total := 0.0
	for _, w := range s {
		if !day.Before(w.From) && day.Before(w.To) {
			total += w.Rate
		}
	}
	return total
}

// Steady is a constant-rate schedule across the whole window.
func Steady(rate float64) Schedule {
	return Schedule{{From: WindowStart, To: WindowEnd, Rate: rate}}
}

// Between is a single-window schedule.
func Between(from, to time.Time, rate float64) Schedule {
	return Schedule{{From: from, To: to, Rate: rate}}
}

// Waves builds a schedule of recurring bursts: `on` days active at rate,
// then `off` days silent, starting at from until to.
func Waves(from, to time.Time, on, off int, rate float64) Schedule {
	var s Schedule
	for t := from; t.Before(to); t = t.AddDate(0, 0, on+off) {
		end := t.AddDate(0, 0, on)
		if end.After(to) {
			end = to
		}
		s = append(s, Window{From: t, To: end, Rate: rate})
	}
	return s
}

// Noisy scales a day's rate by ±jitter using the provided RNG, for the
// daily variation the monthly boxplots of Figure 1 show.
func Noisy(rate float64, jitter float64, rng *rand.Rand) float64 {
	if rate <= 0 {
		return 0
	}
	return rate * (1 + jitter*(2*rng.Float64()-1))
}
