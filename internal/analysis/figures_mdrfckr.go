package analysis

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"honeynet/internal/report"
	"honeynet/internal/session"
)

// isMdrfckr matches the campaign's sessions by the key label in their
// command text.
func isMdrfckr(txt string) bool { return strings.Contains(txt, "mdrfckr") }

// mdrfckrSessions calls f for every campaign session of the commands
// view, in record order, with its command text.
func mdrfckrSessions(w *World, f func(r *session.Record, txt string)) {
	cmds := w.commands()
	for i, r := range cmds.recs {
		if isMdrfckr(cmds.texts[i]) {
			f(r, cmds.texts[i])
		}
	}
}

// MdrfckrIPs returns the campaign's distinct client IPs, sorted: the
// population the external Killnet feed is sampled from.
func MdrfckrIPs(w *World) []string {
	set := map[string]bool{}
	mdrfckrSessions(w, func(r *session.Record, _ string) { set[r.ClientIP] = true })
	ips := make([]string, 0, len(set))
	for ip := range set {
		ips = append(ips, ip)
	}
	sort.Strings(ips)
	return ips
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
	mdrfckrSessions(w, func(r *session.Record, _ string) {
		d := r.Day()
		row, ok := perDay[d]
		if !ok {
			row = &Fig12Day{Day: d}
			perDay[d] = row
			ips[d] = map[string]bool{}
		}
		row.Sessions++
		ips[d][r.ClientIP] = true
	})
	var out []Fig12Day
	for _, d := range sortedMonths(perDay) {
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
	logins := w.sessions()
	cs := &CaseStudy{
		InitialMonthly: map[time.Time]int{},
		VariantMonthly: map[time.Time]int{},
		Login3245:      maps.Clone(logins.login3245),
	}
	mdrfckrSessions(w, func(r *session.Record, txt string) {
		cs.Sessions++
		// The post-2022-12-08 variant clears hosts.deny and removes the
		// WorkMiner scripts instead of changing the root password.
		if strings.Contains(txt, "hosts.deny") {
			cs.VariantMonthly[r.Month()]++
		} else {
			cs.InitialMonthly[r.Month()]++
		}
		if strings.Contains(txt, "base64 -d") {
			if inDropWindow(r.Start) {
				cs.Base64InDrops++
			} else {
				cs.Base64Outside++
			}
		}
	})
	mdrIPs := MdrfckrIPs(w)
	cs.UniqueIPs = len(mdrIPs)
	if len(logins.ips3245) > 0 {
		overlap := 0
		for ip := range logins.ips3245 {
			if _, ok := slices.BinarySearch(mdrIPs, ip); ok {
				overlap++
			}
		}
		cs.IPOverlap3245 = float64(overlap) / float64(len(logins.ips3245))
	}
	cs.KillnetOverlap = w.AbuseDB.KillnetOverlap(mdrIPs)
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
	t := &report.Table{
		Title:   "Figure 13: mdrfckr-initial vs mdrfckr-variant vs 3245gs5662d34 logins",
		Headers: []string{"month", "mdrfckr-initial", "mdrfckr-variant", "login-3245gs5662d34"},
	}
	for _, m := range sortedMonths(cs.InitialMonthly, cs.VariantMonthly, cs.Login3245) {
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
	cmds := w.commands()
	for i, r := range cmds.recs {
		txt := cmds.texts[i]
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
