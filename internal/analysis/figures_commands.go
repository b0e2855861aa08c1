package analysis

import (
	"sort"
	"time"

	"honeynet/internal/report"
	"honeynet/internal/session"
)

// ---------- Dataset statistics (section 3.3) ----------

// DatasetStats reproduces the headline dataset numbers.
type DatasetStats struct {
	Total, SSH, Telnet int
	Scanning           int
	Scouting           int
	Intrusion          int
	CommandExec        int
	UniqueClientIPs    int
}

// Stats computes the section 3.3 table. Total counts every recorded
// session; the four kind counters cover the SSH subset, exactly as the
// paper reports them (546M SSH of 635M total).
func Stats(w *World) *DatasetStats {
	st := w.sessions().stats
	return &st
}

// Table renders the stats.
func (d *DatasetStats) Table() *report.Table {
	t := &report.Table{
		Title:   "Dataset statistics (section 3.3)",
		Headers: []string{"metric", "sessions", "share"},
	}
	t.AddRow("total (all protocols)", d.Total, "")
	t.AddRow("ssh", d.SSH, report.Pct(d.SSH, d.Total))
	t.AddRow("telnet", d.Telnet, report.Pct(d.Telnet, d.Total))
	t.AddRow("scanning (ssh)", d.Scanning, report.Pct(d.Scanning, d.SSH))
	t.AddRow("scouting (ssh)", d.Scouting, report.Pct(d.Scouting, d.SSH))
	t.AddRow("intrusion (ssh)", d.Intrusion, report.Pct(d.Intrusion, d.SSH))
	t.AddRow("command-execution (ssh)", d.CommandExec, report.Pct(d.CommandExec, d.SSH))
	t.AddRow("unique client IPs", d.UniqueClientIPs, "")
	return t
}

// ---------- Figure 1: state-changing vs. non-state-changing ----------

// Fig1Month is one month's daily-session distribution for both classes.
type Fig1Month struct {
	Month    time.Time
	Changing DailyDist
	Static   DailyDist
}

// DailyDist summarizes a month's daily session counts (the boxplot).
type DailyDist struct {
	Days                     int
	Total                    int
	Min, Q1, Median, Q3, Max float64
}

func newDailyDist(perDay map[time.Time]int) DailyDist {
	var vals []float64
	total := 0
	for _, v := range perDay {
		vals = append(vals, float64(v))
		total += v
	}
	sort.Float64s(vals)
	d := DailyDist{Days: len(vals), Total: total}
	if len(vals) == 0 {
		return d
	}
	d.Min = vals[0]
	d.Max = vals[len(vals)-1]
	d.Q1 = quantile(vals, 0.25)
	d.Median = quantile(vals, 0.5)
	d.Q3 = quantile(vals, 0.75)
	return d
}

// Fig1 computes, per month, the daily distribution of command sessions
// that change vs. do not change honeypot state.
func Fig1(w *World) []Fig1Month {
	chg := map[time.Time]map[time.Time]int{}
	sta := map[time.Time]map[time.Time]int{}
	for _, r := range w.commands().recs {
		m := r.Month()
		day := r.Day()
		dst := sta
		if r.StateChanged || HasExec(r) {
			dst = chg
		}
		if dst[m] == nil {
			dst[m] = map[time.Time]int{}
		}
		dst[m][day]++
	}
	var out []Fig1Month
	for _, m := range sortedMonths(chg, sta) {
		out = append(out, Fig1Month{
			Month:    m,
			Changing: newDailyDist(chg[m]),
			Static:   newDailyDist(sta[m]),
		})
	}
	return out
}

// Fig1Table renders Figure 1's series.
func Fig1Table(rows []Fig1Month) *report.Table {
	t := &report.Table{
		Title: "Figure 1: command sessions/day, changing vs not changing state",
		Headers: []string{"month", "chg_total", "chg_median", "chg_q1", "chg_q3",
			"static_total", "static_median", "static_q1", "static_q3"},
	}
	for _, r := range rows {
		t.AddRow(r.Month.Format("2006-01"),
			r.Changing.Total, r.Changing.Median, r.Changing.Q1, r.Changing.Q3,
			r.Static.Total, r.Static.Median, r.Static.Q1, r.Static.Q3)
	}
	return t
}

// ---------- Figures 2, 3a, 3b: bot mixes ----------

// Fig2 classifies non-state-changing command sessions per month.
// Execution attempts count as state-changing actions (the paper's Figure
// 3 covers them), so they are excluded here even when the target file
// was missing.
func Fig2(w *World) *MonthlyCategoryShares {
	return categorize(w, func(r *session.Record) bool { return !r.StateChanged && !HasExec(r) })
}

// Fig3a classifies sessions that add/modify/delete files WITHOUT
// executing them.
func Fig3a(w *World) *MonthlyCategoryShares {
	return categorize(w, func(r *session.Record) bool { return r.StateChanged && !HasExec(r) })
}

// Fig3b classifies sessions that attempt to execute files.
func Fig3b(w *World) *MonthlyCategoryShares {
	return categorize(w, HasExec)
}

// SharesTable renders a monthly category-share analysis with the top-n
// categories as columns.
func SharesTable(title string, m *MonthlyCategoryShares, topN int) *report.Table {
	cats := m.TopCategories(topN)
	headers := append([]string{"month", "sessions"}, cats...)
	headers = append(headers, "others")
	t := &report.Table{Title: title, Headers: headers}
	for _, month := range m.Months {
		row := []any{month.Format("2006-01"), m.Totals[month]}
		covered := 0.0
		for _, c := range cats {
			s := m.Share(month, c)
			covered += s
			row = append(row, s)
		}
		row = append(row, 1-covered)
		t.AddRow(row...)
	}
	return t
}

// ---------- Figure 4: exec sessions, file exists vs missing ----------

// Fig4Result carries both the per-month counts and the category mixes.
type Fig4Result struct {
	Exists  *MonthlyCategoryShares
	Missing *MonthlyCategoryShares
}

// Fig4 splits execution sessions by whether the executed file was
// present on the honeypot.
func Fig4(w *World) *Fig4Result {
	return &Fig4Result{
		Exists:  categorize(w, ExecFileExists),
		Missing: categorize(w, func(r *session.Record) bool { return HasExec(r) && !ExecFileExists(r) }),
	}
}

// Totals sums sessions across months.
func totalsOf(m *MonthlyCategoryShares) int {
	n := 0
	for _, v := range m.Totals {
		n += v
	}
	return n
}

// ExistsTotal returns total "file exists" sessions.
func (f *Fig4Result) ExistsTotal() int { return totalsOf(f.Exists) }

// MissingTotal returns total "file missing" sessions.
func (f *Fig4Result) MissingTotal() int { return totalsOf(f.Missing) }

// ---------- Figure 16: unique exec commands ----------

// Fig16Month counts distinct command strings per month for exec
// sessions, split by file presence.
type Fig16Month struct {
	Month         time.Time
	UniqueExists  int
	UniqueMissing int
}

// Fig16 computes the unique-command series.
func Fig16(w *World) []Fig16Month {
	exists := map[time.Time]map[string]bool{}
	missing := map[time.Time]map[string]bool{}
	cmds := w.commands()
	for i, r := range cmds.recs {
		if !HasExec(r) {
			continue
		}
		m := r.Month()
		dst := missing
		if ExecFileExists(r) {
			dst = exists
		}
		if dst[m] == nil {
			dst[m] = map[string]bool{}
		}
		dst[m][cmds.texts[i]] = true
	}
	var out []Fig16Month
	for _, m := range sortedMonths(exists, missing) {
		out = append(out, Fig16Month{Month: m, UniqueExists: len(exists[m]), UniqueMissing: len(missing[m])})
	}
	return out
}

// Fig16Table renders the unique-command series.
func Fig16Table(rows []Fig16Month) *report.Table {
	t := &report.Table{
		Title:   "Figure 16: unique exec commands per month",
		Headers: []string{"month", "unique_file_exists", "unique_file_missing"},
	}
	for _, r := range rows {
		t.AddRow(r.Month.Format("2006-01"), r.UniqueExists, r.UniqueMissing)
	}
	return t
}

// ---------- Table 1: classification coverage ----------

// Table1Result reports rule-coverage statistics.
type Table1Result struct {
	Total      int
	Matched    int
	Unknown    int
	PerCat     map[string]int
	Categories int
}

// Table1 tallies the classifier's verdict on every command session;
// the coverage tally is order-invariant counting.
func Table1(w *World) *Table1Result {
	res := &Table1Result{PerCat: map[string]int{}, Categories: w.Classifier.NumCategories()}
	for _, cat := range w.categories() {
		res.Total++
		res.PerCat[cat]++
		if cat == "unknown" {
			res.Unknown++
		} else {
			res.Matched++
		}
	}
	return res
}

// Table renders coverage plus the per-category breakdown.
func (t1 *Table1Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Table 1: regex classification coverage",
		Headers: []string{"category", "sessions", "share"},
	}
	for _, c := range byCount(t1.PerCat) {
		t.AddRow(c, t1.PerCat[c], report.Pct(t1.PerCat[c], t1.Total))
	}
	t.AddRow("TOTAL", t1.Total, "")
	t.AddRow("matched", t1.Matched, report.Pct(t1.Matched, t1.Total))
	return t
}
