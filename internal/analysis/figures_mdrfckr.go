package analysis

import (
	"strings"
	"time"

	"honeynet/internal/collector"
	"honeynet/internal/report"
	"honeynet/internal/session"
)

// isMdrfckr matches the campaign's sessions by its key label.
func isMdrfckr(r *session.Record) bool {
	return strings.Contains(r.CommandText(), "mdrfckr")
}

// isMdrfckrVariant identifies the post-2022-12-08 variant: it clears
// hosts.deny and removes the WorkMiner scripts instead of changing the
// root password.
func isMdrfckrVariant(r *session.Record) bool {
	txt := r.CommandText()
	return strings.Contains(txt, "mdrfckr") && strings.Contains(txt, "hosts.deny")
}

// ---------- Figure 12: mdrfckr volume over time ----------

// Fig12Day is one day's campaign volume.
type Fig12Day struct {
	Day       time.Time
	Sessions  int
	UniqueIPs int
}

// Fig12 computes the daily session and unique-IP series of the
// campaign.
func Fig12(w *World) []Fig12Day {
	perDay := map[time.Time]*Fig12Day{}
	ips := map[time.Time]map[string]bool{}
	for _, r := range w.Store.All() {
		if !IsSSH(r) || r.Kind() != session.CommandExec || !isMdrfckr(r) {
			continue
		}
		d := r.Day()
		row, ok := perDay[d]
		if !ok {
			row = &Fig12Day{Day: d}
			perDay[d] = row
			ips[d] = map[string]bool{}
		}
		row.Sessions++
		ips[d][r.ClientIP] = true
	}
	var out []Fig12Day
	for _, d := range collector.SortedMonths(perDay) {
		perDay[d].UniqueIPs = len(ips[d])
		out = append(out, *perDay[d])
	}
	return out
}

// Fig12Table renders the daily series downsampled to weekly rows to
// keep output readable.
func Fig12Table(rows []Fig12Day) *report.Table {
	t := &report.Table{
		Title:   "Figure 12: mdrfckr sessions and unique client IPs (weekly samples)",
		Headers: []string{"day", "sessions", "unique_ips"},
	}
	for i, r := range rows {
		if i%7 == 0 {
			t.AddRow(r.Day.Format("2006-01-02"), r.Sessions, r.UniqueIPs)
		}
	}
	return t
}

// ---------- Figure 13 + section 9 case study ----------

// CaseStudy is the full mdrfckr investigation.
type CaseStudy struct {
	// Volumes.
	Sessions  int
	UniqueIPs int
	// Variant split (Figure 13).
	InitialMonthly map[time.Time]int
	VariantMonthly map[time.Time]int
	Login3245      map[time.Time]int
	// IPOverlap3245 is the share of 3245gs5662d34 client IPs also seen
	// in mdrfckr sessions of the same period (the paper: 99.4%).
	IPOverlap3245 float64
	// DropWindowBase64 counts base64-script sessions inside vs outside
	// the campaign's low-activity windows.
	Base64InDrops, Base64Outside int
	// KillnetOverlap counts campaign IPs on the Killnet proxy list.
	KillnetOverlap int
	// CompromisedHosts is the Shadowserver-style key prevalence.
	CompromisedHosts int
}

// Mdrfckr runs the section 9 case study.
func Mdrfckr(w *World, keyHash string) *CaseStudy {
	cs := &CaseStudy{
		InitialMonthly: map[time.Time]int{},
		VariantMonthly: map[time.Time]int{},
		Login3245:      map[time.Time]int{},
	}
	mdrIPs := map[string]bool{}
	ips3245 := map[string]bool{}
	for _, r := range w.Store.All() {
		if !IsSSH(r) {
			continue
		}
		if r.Kind() == session.Intrusion {
			for _, l := range r.Logins {
				if l.Success && l.Password == "3245gs5662d34" {
					cs.Login3245[r.Month()]++
					ips3245[r.ClientIP] = true
				}
			}
			continue
		}
		if r.Kind() != session.CommandExec || !isMdrfckr(r) {
			continue
		}
		cs.Sessions++
		mdrIPs[r.ClientIP] = true
		if isMdrfckrVariant(r) {
			cs.VariantMonthly[r.Month()]++
		} else {
			cs.InitialMonthly[r.Month()]++
		}
		if strings.Contains(r.CommandText(), "base64 -d") {
			if inDropWindow(r.Start) {
				cs.Base64InDrops++
			} else {
				cs.Base64Outside++
			}
		}
	}
	cs.UniqueIPs = len(mdrIPs)
	if len(ips3245) > 0 {
		overlap := 0
		for ip := range ips3245 {
			if mdrIPs[ip] {
				overlap++
			}
		}
		cs.IPOverlap3245 = float64(overlap) / float64(len(ips3245))
	}
	ipList := make([]string, 0, len(mdrIPs))
	for ip := range mdrIPs {
		ipList = append(ipList, ip)
	}
	cs.KillnetOverlap = w.AbuseDB.KillnetOverlap(ipList)
	if keyHash != "" {
		cs.CompromisedHosts = w.AbuseDB.CompromisedHosts(keyHash)
	}
	return cs
}

// inDropWindow mirrors botnet.InMdrfckrDrop without importing it (the
// analysis must not depend on generator internals): the drop windows
// are the published event calendar of section 10.
func inDropWindow(t time.Time) bool {
	for _, ev := range EventCalendar {
		if !t.Before(ev.From) && t.Before(ev.To) {
			return true
		}
	}
	return false
}

// Fig13Table renders the variant/credential comparison.
func (cs *CaseStudy) Fig13Table() *report.Table {
	months := map[time.Time]bool{}
	for m := range cs.InitialMonthly {
		months[m] = true
	}
	for m := range cs.VariantMonthly {
		months[m] = true
	}
	for m := range cs.Login3245 {
		months[m] = true
	}
	t := &report.Table{
		Title:   "Figure 13: mdrfckr-initial vs mdrfckr-variant vs 3245gs5662d34 logins",
		Headers: []string{"month", "mdrfckr-initial", "mdrfckr-variant", "login-3245gs5662d34"},
	}
	for _, m := range collector.SortedMonths(months) {
		t.AddRow(m.Format("2006-01"), cs.InitialMonthly[m], cs.VariantMonthly[m], cs.Login3245[m])
	}
	return t
}

// Table renders the case-study headline numbers.
func (cs *CaseStudy) Table() *report.Table {
	t := &report.Table{
		Title:   "Section 9: mdrfckr case study",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("sessions", cs.Sessions)
	t.AddRow("unique client IPs", cs.UniqueIPs)
	t.AddRow("3245gs IP overlap", cs.IPOverlap3245)
	t.AddRow("base64 scripts in drop windows", cs.Base64InDrops)
	t.AddRow("base64 scripts outside", cs.Base64Outside)
	t.AddRow("Killnet list overlap", cs.KillnetOverlap)
	t.AddRow("hosts with mdrfckr key (Shadowserver)", cs.CompromisedHosts)
	return t
}

// ---------- Appendix C: the curl proxy-abuse campaign ----------

// CurlProxyStats summarizes the curl_maxred campaign.
type CurlProxyStats struct {
	Sessions     int
	ClientIPs    int
	Honeypots    int
	CurlRequests int
	From, To     time.Time
}

// CurlProxy computes the Appendix C numbers.
func CurlProxy(w *World) *CurlProxyStats {
	st := &CurlProxyStats{}
	ips := map[string]bool{}
	hps := map[string]bool{}
	for _, r := range w.Store.All() {
		if !IsSSH(r) || r.Kind() != session.CommandExec {
			continue
		}
		txt := r.CommandText()
		if !strings.Contains(txt, "max-redir") {
			continue
		}
		st.Sessions++
		ips[r.ClientIP] = true
		hps[r.HoneypotID] = true
		st.CurlRequests += strings.Count(txt, "curl ")
		if st.From.IsZero() || r.Start.Before(st.From) {
			st.From = r.Start
		}
		if r.Start.After(st.To) {
			st.To = r.Start
		}
	}
	st.ClientIPs = len(ips)
	st.Honeypots = len(hps)
	return st
}

// Table renders the proxy-abuse stats.
func (s *CurlProxyStats) Table() *report.Table {
	t := &report.Table{
		Title:   "Appendix C: curl proxy-abuse campaign (curl_maxred)",
		Headers: []string{"metric", "value"},
	}
	t.AddRow("sessions", s.Sessions)
	t.AddRow("client IPs", s.ClientIPs)
	t.AddRow("honeypots reached", s.Honeypots)
	t.AddRow("curl requests issued", s.CurlRequests)
	if !s.From.IsZero() {
		t.AddRow("first seen", s.From.Format("2006-01-02"))
		t.AddRow("last seen", s.To.Format("2006-01-02"))
	}
	return t
}
