package analysis

import (
	"maps"
	"math"
	"time"

	"honeynet/internal/report"
)

// ---------- Figure 10: top login passwords ----------

// Fig10Result tracks the top passwords used in successful logins.
type Fig10Result struct {
	Top []string
	// Monthly[password][month] = sessions, for the Top passwords.
	Monthly map[string]map[time.Time]int
	// Totals[password] = sessions over the window, for the Top passwords.
	Totals map[string]int
}

// Fig10 counts sessions per password over time for the top-n passwords
// (the paper shows 5). It ranks on the sessions view's totals and
// copies out only the series it returns; the view's maps stay as
// tallied.
func Fig10(w *World, topN int) *Fig10Result {
	s := w.sessions()
	top := byCount(s.successTotals)
	if len(top) > topN {
		top = top[:topN]
	}
	res := &Fig10Result{Top: top, Monthly: map[string]map[time.Time]int{}, Totals: map[string]int{}}
	for _, p := range top {
		res.Monthly[p] = maps.Clone(s.successes[p])
		res.Totals[p] = s.successTotals[p]
	}
	return res
}

// Table renders the monthly series for the top passwords.
func (f *Fig10Result) Table() *report.Table {
	months := map[time.Time]bool{}
	for _, p := range f.Top {
		for m := range f.Monthly[p] {
			months[m] = true
		}
	}
	t := &report.Table{
		Title:   "Figure 10: top login passwords over time (sessions)",
		Headers: append([]string{"month"}, f.Top...),
	}
	for _, m := range sortedMonths(months) {
		row := []any{m.Format("2006-01")}
		for _, p := range f.Top {
			row = append(row, f.Monthly[p][m])
		}
		t.AddRow(row...)
	}
	return t
}

// Correlation computes the Pearson correlation of two Top passwords'
// monthly series — the dreambox / vertex25ektks123 synchronization
// check.
func (f *Fig10Result) Correlation(a, b string) float64 {
	var xs, ys []float64
	for _, m := range sortedMonths(f.Monthly[a], f.Monthly[b]) {
		xs = append(xs, float64(f.Monthly[a][m]))
		ys = append(ys, float64(f.Monthly[b][m]))
	}
	return pearson(xs, ys)
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / (math.Sqrt(vx) * math.Sqrt(vy))
}

// ---------- Figure 11: Cowrie default usernames ----------

// Fig11Month counts phil login successes and richard attempts.
type Fig11Month struct {
	Month        time.Time
	PhilSuccess  int
	RichardTries int
}

// Fig11Result carries the series plus the fingerprinting statistics of
// section 8.
type Fig11Result struct {
	Months []Fig11Month
	// PhilSessions is the total count of sessions logging in as phil.
	PhilSessions int
	// PhilNoCommands is how many of those ran no commands (the >90%
	// immediate-disconnect fingerprinting signature).
	PhilNoCommands int
	// PhilUniqueIPs counts distinct sources.
	PhilUniqueIPs int
	// PhilRepeatIPs counts sources seen more than once.
	PhilRepeatIPs int
}

// Fig11 computes the Cowrie-default-credential series.
func Fig11(w *World) *Fig11Result {
	s := w.sessions()
	res := &Fig11Result{PhilNoCommands: s.philNoCommands, PhilUniqueIPs: len(s.philIPs)}
	for _, n := range s.philIPs {
		res.PhilSessions += n
		if n > 1 {
			res.PhilRepeatIPs++
		}
	}
	for _, m := range sortedMonths(s.philOK, s.richardTries) {
		res.Months = append(res.Months, Fig11Month{Month: m, PhilSuccess: s.philOK[m], RichardTries: s.richardTries[m]})
	}
	return res
}

// Table renders the series.
func (f *Fig11Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Figure 11: Cowrie default usernames over time",
		Headers: []string{"month", "login-success: phil", "login-try: richard"},
	}
	for _, m := range f.Months {
		t.AddRow(m.Month.Format("2006-01"), m.PhilSuccess, m.RichardTries)
	}
	return t
}
