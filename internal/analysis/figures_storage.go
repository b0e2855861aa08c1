package analysis

import (
	"sort"
	"time"

	"honeynet/internal/asdb"
	"honeynet/internal/report"
)

// ---------- Section 7 headline storage statistics ----------

// StorageStats reproduces the section 7 numbers: client-vs-storage IP
// disjointness, unique counts, and abuse-report coverage.
type StorageStats struct {
	DownloadSessions   int
	StorageNEQClient   int
	UniqueClientIPs    int
	UniqueStorageIPs   int
	StorageIPsReported int
	StorageASes        int
	// DownASes counts storage ASes that no longer announce any prefix
	// (the paper found 36 of 388).
	DownASes int
}

// Storage computes the headline statistics.
func Storage(w *World) *StorageStats {
	st := &StorageStats{}
	clients := map[string]bool{}
	storage := map[string]bool{}
	ases := map[int]bool{}
	seenSession := map[uint64]bool{}
	for _, ds := range w.commands().dls {
		if !seenSession[ds.id] {
			seenSession[ds.id] = true
			st.DownloadSessions++
			if ds.storageIP != ds.clientIP {
				st.StorageNEQClient++
			}
			clients[ds.clientIP] = true
		}
		if !storage[ds.storageIP] {
			storage[ds.storageIP] = true
			if w.AbuseDB.IPReported(ds.storageIP) {
				st.StorageIPsReported++
			}
			if as, ok := w.Registry.Lookup(ds.storageIP, ds.start); ok {
				if !ases[as.ASN] && as.Down {
					st.DownASes++
				}
				ases[as.ASN] = true
			}
		}
	}
	st.UniqueClientIPs = len(clients)
	st.UniqueStorageIPs = len(storage)
	st.StorageASes = len(ases)
	return st
}

// Table renders the storage statistics.
func (s *StorageStats) Table() *report.Table {
	t := &report.Table{
		Title:   "Section 7: malware storage statistics",
		Headers: []string{"metric", "value", "share"},
	}
	t.AddRow("download sessions", s.DownloadSessions, "")
	t.AddRow("storage IP != client IP", s.StorageNEQClient, report.Pct(s.StorageNEQClient, s.DownloadSessions))
	t.AddRow("unique client IPs (downloads)", s.UniqueClientIPs, "")
	t.AddRow("unique storage IPs", s.UniqueStorageIPs, "")
	t.AddRow("storage IPs in abuse feeds", s.StorageIPsReported, report.Pct(s.StorageIPsReported, s.UniqueStorageIPs))
	t.AddRow("distinct storage ASes", s.StorageASes, "")
	t.AddRow("storage ASes no longer announcing", s.DownASes, report.Pct(s.DownASes, s.StorageASes))
	return t
}

// ---------- Figure 7: Sankey of client vs. storage AS types ----------

// Fig7Result counts (clientType, storageType) download flows.
type Fig7Result struct {
	// Flows[clientType][storageType] = download count.
	Flows map[string]map[string]int
	// SameIP counts flows where client == storage IP (the blue flows).
	SameIP int
	Total  int
}

// Fig7 builds the Sankey flow counts.
func Fig7(w *World) *Fig7Result {
	res := &Fig7Result{Flows: map[string]map[string]int{}}
	for _, ds := range w.commands().dls {
		cAS, ok1 := w.Registry.Lookup(ds.clientIP, ds.start)
		sAS, ok2 := w.Registry.Lookup(ds.storageIP, ds.start)
		if !ok1 || !ok2 {
			continue
		}
		ct, st := cAS.Type.String(), sAS.Type.String()
		if res.Flows[ct] == nil {
			res.Flows[ct] = map[string]int{}
		}
		res.Flows[ct][st]++
		res.Total++
		if ds.clientIP == ds.storageIP {
			res.SameIP++
		}
	}
	return res
}

// Table renders the flows.
func (f *Fig7Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Figure 7: client AS type vs malware storage AS type (download flows)",
		Headers: []string{"client_type", "storage_type", "flows", "share"},
	}
	var cts []string
	for ct := range f.Flows {
		cts = append(cts, ct)
	}
	sort.Strings(cts)
	for _, ct := range cts {
		var sts []string
		for st := range f.Flows[ct] {
			sts = append(sts, st)
		}
		sort.Strings(sts)
		for _, st := range sts {
			t.AddRow(ct, st, f.Flows[ct][st], report.Pct(f.Flows[ct][st], f.Total))
		}
	}
	t.AddRow("(same client==storage IP)", "", f.SameIP, report.Pct(f.SameIP, f.Total))
	return t
}

// TypeShare returns the share of flows whose side (client or storage)
// has the given AS type.
func (f *Fig7Result) TypeShare(storageSide bool, typ string) float64 {
	n := 0
	for ct, m := range f.Flows {
		for st, v := range m {
			if (storageSide && st == typ) || (!storageSide && ct == typ) {
				n += v
			}
		}
	}
	if f.Total == 0 {
		return 0
	}
	return float64(n) / float64(f.Total)
}

// ---------- Figure 8: AS age and size of storage locations ----------

// Fig8Month buckets a month's download sessions by storage-AS age and
// size.
type Fig8Month struct {
	Month    time.Time
	Sessions int
	// Age buckets.
	AgeUnder1y, Age1to5y, AgeOver5y int
	// Size buckets (announced /24 count).
	SizeOne, SizeUnder50, SizeOver50 int
}

// Fig8 computes both Figure 8(a) and 8(b) series.
func Fig8(w *World) []Fig8Month {
	perMonth := map[time.Time]*Fig8Month{}
	for _, ds := range w.commands().dls {
		as, ok := w.Registry.Lookup(ds.storageIP, ds.start)
		if !ok {
			continue
		}
		m := monthKey(ds.start)
		row, ok := perMonth[m]
		if !ok {
			row = &Fig8Month{Month: m}
			perMonth[m] = row
		}
		row.Sessions++
		age := as.AgeAt(ds.start)
		const year = 365 * 24 * time.Hour
		switch {
		case age < year:
			row.AgeUnder1y++
		case age < 5*year:
			row.Age1to5y++
		default:
			row.AgeOver5y++
		}
		switch {
		case as.Prefixes24 <= 1:
			row.SizeOne++
		case as.Prefixes24 < 50:
			row.SizeUnder50++
		default:
			row.SizeOver50++
		}
	}
	var out []Fig8Month
	for _, m := range sortedMonths(perMonth) {
		out = append(out, *perMonth[m])
	}
	return out
}

// Fig8Totals aggregates the age/size buckets over the whole window.
type Fig8Totals struct {
	Sessions                         int
	AgeUnder1y, Age1to5y, AgeOver5y  int
	SizeOne, SizeUnder50, SizeOver50 int
}

// Totals sums the monthly rows.
func Fig8Sum(rows []Fig8Month) Fig8Totals {
	var t Fig8Totals
	for _, r := range rows {
		t.Sessions += r.Sessions
		t.AgeUnder1y += r.AgeUnder1y
		t.Age1to5y += r.Age1to5y
		t.AgeOver5y += r.AgeOver5y
		t.SizeOne += r.SizeOne
		t.SizeUnder50 += r.SizeUnder50
		t.SizeOver50 += r.SizeOver50
	}
	return t
}

// Fig8Table renders both series.
func Fig8Table(rows []Fig8Month) *report.Table {
	t := &report.Table{
		Title: "Figure 8: AS age and size of malware storage locations",
		Headers: []string{"month", "sessions", "age<1y", "age<5y", "age>=5y",
			"one/24", "<50/24", ">=50/24"},
	}
	for _, r := range rows {
		t.AddRow(r.Month.Format("2006-01"), r.Sessions,
			report.Pct(r.AgeUnder1y, r.Sessions),
			report.Pct(r.AgeUnder1y+r.Age1to5y, r.Sessions),
			report.Pct(r.AgeOver5y, r.Sessions),
			report.Pct(r.SizeOne, r.Sessions),
			report.Pct(r.SizeOne+r.SizeUnder50, r.Sessions),
			report.Pct(r.SizeOver50, r.Sessions))
	}
	return t
}

// ---------- Figure 9: storage IP activity over recall windows ----------

// Fig9Buckets are the activity-day buckets of the figure.
var Fig9Buckets = []struct {
	Name string
	Max  int // inclusive upper bound in days
}{
	{"<=1d", 1}, {"<=4d", 4}, {"<=1w", 7}, {"<=2w", 14}, {"<=4w", 28},
	{"<=8w", 56}, {"<=16w", 112}, {"<=0.5y", 182}, {"<=1y", 365}, {">1y", 1 << 30},
}

// Fig9Quarter is one quarter's activity-day distribution for a recall
// window.
type Fig9Quarter struct {
	Quarter time.Time
	// CountByBucket[i] counts storage IPs whose total distinct active
	// days within the recall window fall into Fig9Buckets[i].
	CountByBucket []int
	Total         int
}

// Fig9 computes, for each recall window (in days; 0 = entire dataset),
// the quarterly distribution of per-IP activity spans: for each storage
// IP first seen in a quarter, the number of days between its first and
// last sighting within the recall window. A span beyond six months means
// the IP "reappeared after at least six months" — the pool-rotation
// signal of section 7.
func Fig9(w *World, recallDays int) []Fig9Quarter {
	// Collect per-IP sorted activity days.
	days := map[string]map[time.Time]bool{}
	for _, ds := range w.commands().dls {
		ip := ds.storageIP
		if days[ip] == nil {
			days[ip] = map[time.Time]bool{}
		}
		days[ip][ds.start.Truncate(24*time.Hour)] = true
	}
	perQuarter := map[time.Time]*Fig9Quarter{}
	for _, set := range days {
		var ds []time.Time
		for d := range set {
			ds = append(ds, d)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i].Before(ds[j]) })
		first := ds[0]
		last := first
		if recallDays <= 0 {
			last = ds[len(ds)-1]
		} else {
			limit := first.AddDate(0, 0, recallDays)
			for _, d := range ds {
				if d.Before(limit) {
					last = d
				}
			}
		}
		active := int(last.Sub(first).Hours()/24) + 1
		q := time.Date(first.Year(), time.Month((int(first.Month())-1)/3*3+1), 1, 0, 0, 0, 0, time.UTC)
		row, ok := perQuarter[q]
		if !ok {
			row = &Fig9Quarter{Quarter: q, CountByBucket: make([]int, len(Fig9Buckets))}
			perQuarter[q] = row
		}
		for i, b := range Fig9Buckets {
			if active <= b.Max {
				row.CountByBucket[i]++
				break
			}
		}
		row.Total++
	}
	var out []Fig9Quarter
	for _, q := range sortedMonths(perQuarter) {
		out = append(out, *perQuarter[q])
	}
	return out
}

// LongLivedShare returns, across all quarters, the fraction of storage
// IPs active on more days than minDays within the recall window.
func LongLivedShare(rows []Fig9Quarter, minBucket int) float64 {
	long, total := 0, 0
	for _, r := range rows {
		total += r.Total
		for i := minBucket; i < len(r.CountByBucket); i++ {
			long += r.CountByBucket[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(long) / float64(total)
}

// Fig9Table renders one recall window's series.
func Fig9Table(title string, rows []Fig9Quarter) *report.Table {
	headers := []string{"quarter", "ips"}
	for _, b := range Fig9Buckets {
		headers = append(headers, b.Name)
	}
	t := &report.Table{Title: title, Headers: headers}
	for _, r := range rows {
		row := []any{r.Quarter.Format("2006-01"), r.Total}
		for i := range Fig9Buckets {
			row = append(row, report.Pct(r.CountByBucket[i], r.Total))
		}
		t.AddRow(row...)
	}
	return t
}

// ---------- Figure 17: storage AS types over time ----------

// Fig17Month is one month's storage-AS-type mix.
type Fig17Month struct {
	Month    time.Time
	Sessions int
	ByType   map[string]int
}

// Fig17 buckets download sessions by the storage AS type per month.
func Fig17(w *World) []Fig17Month {
	perMonth := map[time.Time]*Fig17Month{}
	for _, ds := range w.commands().dls {
		as, ok := w.Registry.Lookup(ds.storageIP, ds.start)
		if !ok {
			continue
		}
		m := monthKey(ds.start)
		row, ok := perMonth[m]
		if !ok {
			row = &Fig17Month{Month: m, ByType: map[string]int{}}
			perMonth[m] = row
		}
		row.Sessions++
		row.ByType[as.Type.String()]++
	}
	var out []Fig17Month
	for _, m := range sortedMonths(perMonth) {
		out = append(out, *perMonth[m])
	}
	return out
}

// Fig17Table renders the type mix.
func Fig17Table(rows []Fig17Month) *report.Table {
	types := []string{
		asdb.TypeCDN.String(), asdb.TypeHosting.String(),
		asdb.TypeISPNSP.String(), asdb.TypeOther.String(),
	}
	t := &report.Table{
		Title:   "Figure 17: AS types of malware storage locations over time",
		Headers: append([]string{"month", "sessions"}, types...),
	}
	for _, r := range rows {
		row := []any{r.Month.Format("2006-01"), r.Sessions}
		for _, typ := range types {
			row = append(row, report.Pct(r.ByType[typ], r.Sessions))
		}
		t.AddRow(row...)
	}
	return t
}
