package analysis

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"honeynet/internal/botnet"
	"honeynet/internal/classify"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
)

// sharedWorld builds one full-window dataset for all analysis tests.
var (
	worldOnce sync.Once
	world     *World
)

func testWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() {
		res, err := simulate.Run(simulate.Config{Scale: 5000, Seed: 11})
		if err != nil {
			panic(err)
		}
		world = &World{
			Records:    res.Store.All(),
			Registry:   res.Registry,
			AbuseDB:    res.AbuseDB,
			Classifier: classify.New(),
		}
	})
	return world
}

func TestMain(m *testing.M) { os.Exit(m.Run()) }

func month(y int, m time.Month) time.Time {
	return time.Date(y, m, 1, 0, 0, 0, 0, time.UTC)
}

func TestStatsShape(t *testing.T) {
	w := testWorld(t)
	st := Stats(w)
	if st.Total == 0 || st.SSH == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The paper: 546M SSH of 635M total (86%%); the rest is Telnet.
	sshShare := float64(st.SSH) / float64(st.Total)
	if sshShare < 0.80 || sshShare > 0.92 {
		t.Errorf("ssh share = %.3f, want ~0.86", sshShare)
	}
	if st.Telnet == 0 || st.SSH+st.Telnet != st.Total {
		t.Errorf("protocol split broken: %+v", st)
	}
	// Scouting dominates; command execution second — the paper's order.
	if !(st.Scouting > st.CommandExec && st.CommandExec > st.Intrusion && st.Intrusion > st.Scanning) {
		t.Errorf("session-type ordering broken: %+v", st)
	}
	if st.Table().String() == "" {
		t.Error("empty table")
	}
}

func TestFig1ShiftToExploration(t *testing.T) {
	w := testWorld(t)
	rows := Fig1(w)
	if len(rows) < 30 {
		t.Fatalf("months = %d", len(rows))
	}
	byMonth := map[time.Time]Fig1Month{}
	for _, r := range rows {
		byMonth[r.Month] = r
	}
	// Early-2022 spike in state-changing sessions (the one-botnet wave).
	feb22 := byMonth[month(2022, 2)].Changing.Total
	dec21 := byMonth[month(2021, 12)].Changing.Total
	if feb22 < 3*dec21 {
		t.Errorf("early-2022 spike missing: feb22=%d dec21=%d", feb22, dec21)
	}
	// From 2023: non-state sessions clearly exceed state-changing ones.
	q3_23 := byMonth[month(2023, 7)]
	if q3_23.Static.Total <= q3_23.Changing.Total {
		t.Errorf("2023 exploration shift missing: static=%d changing=%d",
			q3_23.Static.Total, q3_23.Changing.Total)
	}
	// And the static series grows from 2022 to 2023 (the paper's trend).
	if byMonth[month(2023, 7)].Static.Total <= byMonth[month(2022, 7)].Static.Total {
		t.Error("static sessions should increase into 2023")
	}
	// Boxplot stats are internally consistent.
	for _, r := range rows {
		for _, d := range []DailyDist{r.Changing, r.Static} {
			if d.Min > d.Q1 || d.Q1 > d.Median || d.Median > d.Q3 || d.Q3 > d.Max {
				t.Fatalf("quantiles disordered: %+v", d)
			}
		}
	}
}

func TestFig2EchoOKDominates(t *testing.T) {
	w := testWorld(t)
	f2 := Fig2(w)
	top := f2.TopCategories(3)
	if len(top) == 0 || top[0] != "echo_ok" {
		t.Fatalf("top categories = %v, want echo_ok first", top)
	}
	// Overall echo_ok share across months is dominant (paper: >80% of
	// the top-3 mass; our catalog includes more diluting scouts).
	overall := 0.0
	n := 0
	for _, m := range f2.Months {
		overall += f2.Share(m, "echo_ok")
		n++
	}
	if avg := overall / float64(n); avg < 0.55 {
		t.Errorf("echo_ok mean share = %.2f, want dominant", avg)
	}
}

func TestFig3aMdrfckrDominates(t *testing.T) {
	w := testWorld(t)
	f3a := Fig3a(w)
	// mdrfckr (both variants) accounts for >80% of file-touch sessions.
	total, mdr := 0, 0
	for m, byCat := range f3a.Counts {
		total += f3a.Totals[m]
		mdr += byCat["mdrfckr"] + byCat["mdrfckr_variant"]
	}
	if frac := float64(mdr) / float64(total); frac < 0.8 {
		t.Errorf("mdrfckr share = %.2f, want > 0.8 (paper: >90%%)", frac)
	}
}

func TestFig3bDeclineAndBusybox(t *testing.T) {
	w := testWorld(t)
	f3b := Fig3b(w)
	early := f3b.Totals[month(2022, 3)]
	late := f3b.Totals[month(2024, 6)]
	if late >= early {
		t.Errorf("exec sessions should decline: 2022-03=%d 2024-06=%d", early, late)
	}
	// bbox_unlabelled activity ends by August 2022.
	for m, byCat := range f3b.Counts {
		if m.After(month(2022, 8)) && byCat["bbox_unlabelled"] > 0 {
			t.Errorf("bbox_unlabelled alive in %v", m)
		}
	}
}

func TestFig4ExistsCollapse(t *testing.T) {
	w := testWorld(t)
	f4 := Fig4(w)
	if f4.MissingTotal() <= f4.ExistsTotal() {
		t.Errorf("missing (%d) must exceed exists (%d) — paper: 12M vs 3M",
			f4.MissingTotal(), f4.ExistsTotal())
	}
	// "File exists" collapses from 2023 (paper: 100k/mo -> 5k/mo).
	exists22 := f4.Exists.Totals[month(2022, 5)]
	exists24 := f4.Exists.Totals[month(2024, 5)]
	if exists24*3 >= exists22 {
		t.Errorf("exists collapse missing: 2022-05=%d 2024-05=%d", exists22, exists24)
	}
}

func TestFig16MissingMoreDiverse(t *testing.T) {
	w := testWorld(t)
	rows := Fig16(w)
	missingWins := 0
	for _, r := range rows {
		if r.Month.Before(month(2023, 1)) {
			continue
		}
		if r.UniqueMissing > r.UniqueExists {
			missingWins++
		}
	}
	if missingWins < 12 {
		t.Errorf("file-missing commands should be more diverse post-2023 (wins=%d)", missingWins)
	}
}

func TestTable1Coverage(t *testing.T) {
	w := testWorld(t)
	t1 := Table1(w)
	if t1.Total == 0 {
		t.Fatal("no sessions classified")
	}
	// Paper: >99% matched. Our catalog emits only classifiable commands.
	if frac := float64(t1.Matched) / float64(t1.Total); frac < 0.99 {
		t.Errorf("match coverage = %.4f, want > 0.99 (unknown: %d)", frac, t1.Unknown)
	}
	if t1.Categories < 59 {
		t.Errorf("categories = %d", t1.Categories)
	}
}

func TestClusteringPipeline(t *testing.T) {
	w := testWorld(t)
	res, err := RunClustering(w, ClusterConfig{K: 20, SampleSize: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 20 || len(res.Texts) == 0 {
		t.Fatalf("clustering: k=%d texts=%d", res.K, len(res.Texts))
	}
	// Every text assigned; weights positive, and each text's monthly
	// session counts sum to its weight.
	for i := range res.Texts {
		n := 0
		for _, c := range res.Months[i] {
			n += c
		}
		if res.Weight[i] <= 0 || n != res.Weight[i] {
			t.Fatalf("text %d weight %d sessions %d", i, res.Weight[i], n)
		}
	}
	// At least one cluster carries an abuse-database family label.
	labeled := 0
	for _, l := range res.Labels {
		if len(l) > 0 {
			labeled++
		}
	}
	if labeled == 0 {
		t.Error("no cluster received a family label")
	}
	// Fig 6 shares are sane.
	for _, m := range res.Fig6(5) {
		sum := 0.0
		for _, s := range m.Shares {
			sum += s
		}
		if sum > 1.0001 {
			t.Fatalf("month %v shares sum to %f", m.Month, sum)
		}
	}
	if res.Fig5Table(5).String() == "" {
		t.Error("fig5 table empty")
	}
}

func TestFig7SankeyShape(t *testing.T) {
	w := testWorld(t)
	f7 := Fig7(w)
	if f7.Total == 0 {
		t.Fatal("no flows")
	}
	// Clients mostly in ISP/NSP; storage mostly Hosting.
	if s := f7.TypeShare(false, "ISP/NSP"); s < 0.5 {
		t.Errorf("client ISP/NSP share = %.2f", s)
	}
	if s := f7.TypeShare(true, "Hosting"); s < 0.6 {
		t.Errorf("storage Hosting share = %.2f", s)
	}
	// Client IP == storage IP is rare (paper: 20% same, 80% different).
	if frac := float64(f7.SameIP) / float64(f7.Total); frac > 0.3 {
		t.Errorf("same-IP share = %.2f, want small", frac)
	}
}

func TestFig8AgeAndSize(t *testing.T) {
	w := testWorld(t)
	rows := Fig8(w)
	tot := Fig8Sum(rows)
	if tot.Sessions == 0 {
		t.Fatal("no download sessions")
	}
	under1 := float64(tot.AgeUnder1y) / float64(tot.Sessions)
	under5 := float64(tot.AgeUnder1y+tot.Age1to5y) / float64(tot.Sessions)
	if under1 < 0.20 || under1 > 0.55 {
		t.Errorf("age<1y = %.2f, want ~0.35", under1)
	}
	if under5 < 0.55 || under5 > 0.90 {
		t.Errorf("age<5y = %.2f, want ~0.70", under5)
	}
	one := float64(tot.SizeOne) / float64(tot.Sessions)
	if one < 0.08 || one > 0.40 {
		t.Errorf("single-/24 = %.2f, want ~0.20", one)
	}
}

func TestFig9RecallWindows(t *testing.T) {
	w := testWorld(t)
	week := Fig9(w, 7)
	if len(week) == 0 {
		t.Fatal("no quarters")
	}
	// One-week recall: ~50% of storage IPs are single-day.
	oneDay, total := 0, 0
	for _, q := range week {
		oneDay += q.CountByBucket[0]
		total += q.Total
	}
	if frac := float64(oneDay) / float64(total); frac < 0.30 || frac > 0.75 {
		t.Errorf("single-day share (1w recall) = %.2f, want ~0.5", frac)
	}
	// Full recall: a substantial fraction reappears after >= 6 months
	// (bucket indexes 8+ are > 0.5y).
	all := Fig9(w, 0)
	if s := LongLivedShare(all, 8); s < 0.08 {
		t.Errorf("IPs spanning > 6 months = %.2f, want noticeable (paper ~25%%)", s)
	}
	// Recall windows bound spans: 1-week recall must have nothing above
	// the <=1w bucket.
	for _, q := range week {
		for i := 3; i < len(Fig9Buckets); i++ {
			if q.CountByBucket[i] > 0 {
				t.Fatalf("1-week recall has span bucket %s", Fig9Buckets[i].Name)
			}
		}
	}
}

func TestFig10TopPasswords(t *testing.T) {
	w := testWorld(t)
	f10 := Fig10(w, 5)
	if len(f10.Top) != 5 {
		t.Fatalf("top = %v", f10.Top)
	}
	if f10.Top[0] != "3245gs5662d34" {
		t.Errorf("top password = %q, want 3245gs5662d34", f10.Top[0])
	}
	set := map[string]bool{}
	for _, p := range f10.Top {
		set[p] = true
	}
	for _, want := range []string{"admin", "1234", "dreambox", "vertex25ektks123"} {
		if !set[want] {
			t.Errorf("top-5 missing %q: %v", want, f10.Top)
		}
	}
	// The TV-box pair is synchronized.
	if c := f10.Correlation("dreambox", "vertex25ektks123"); c < 0.8 {
		t.Errorf("dreambox/vertex correlation = %.2f, want high", c)
	}
	// 3245gs starts only in December 2022.
	for m, n := range f10.Monthly["3245gs5662d34"] {
		if n > 0 && m.Before(month(2022, 12)) {
			t.Errorf("3245gs activity before Dec 2022: %v", m)
		}
	}
}

func TestFig11Fingerprinting(t *testing.T) {
	w := testWorld(t)
	f11 := Fig11(w)
	if f11.PhilSessions == 0 {
		t.Fatal("no phil sessions")
	}
	// >90% of phil logins run no commands.
	if frac := float64(f11.PhilNoCommands) / float64(f11.PhilSessions); frac < 0.9 {
		t.Errorf("phil no-command share = %.2f", frac)
	}
	// Broad, non-repeating sources.
	if f11.PhilUniqueIPs < f11.PhilSessions*8/10 {
		t.Errorf("phil IPs = %d for %d sessions, want mostly unique", f11.PhilUniqueIPs, f11.PhilSessions)
	}
	// richard tries exist but never succeed (they'd show as phil-like
	// successes otherwise).
	richTries := 0
	for _, m := range f11.Months {
		richTries += m.RichardTries
	}
	if richTries == 0 {
		t.Error("no richard probes recorded")
	}
}

func TestFig12DropWindows(t *testing.T) {
	w := testWorld(t)
	rows := Fig12(w)
	byDay := map[time.Time]Fig12Day{}
	for _, r := range rows {
		byDay[r.Day] = r
	}
	normal := byDay[time.Date(2022, 9, 15, 0, 0, 0, 0, time.UTC)].Sessions
	dropped := byDay[time.Date(2022, 10, 12, 0, 0, 0, 0, time.UTC)].Sessions
	if normal == 0 {
		t.Fatal("no baseline mdrfckr sessions")
	}
	if dropped*3 >= normal {
		t.Errorf("drop window not visible: normal=%d dropped=%d", normal, dropped)
	}
}

func TestMdrfckrCaseStudy(t *testing.T) {
	w := testWorld(t)
	cs := Mdrfckr(w, "")
	if cs.Sessions == 0 || cs.UniqueIPs == 0 {
		t.Fatalf("case study empty: %+v", cs)
	}
	// 99.4% IP overlap between the credential attack and the campaign.
	if cs.IPOverlap3245 < 0.9 {
		t.Errorf("IP overlap = %.3f, want ~0.994", cs.IPOverlap3245)
	}
	// The variant is at least several times smaller than the initial.
	init, variant := 0, 0
	for _, v := range cs.InitialMonthly {
		init += v
	}
	for _, v := range cs.VariantMonthly {
		variant += v
	}
	if variant == 0 || variant*4 > init {
		t.Errorf("variant/initial = %d/%d, want order-of-magnitude smaller", variant, init)
	}
	// base64 scripts appear only in drop windows (positive case tested
	// at fine scale in TestDropWindowBase64, since ~100 sessions/day at
	// coarse scale may round to zero).
	if cs.Base64Outside > 0 {
		t.Errorf("base64 sessions outside drop windows: %d", cs.Base64Outside)
	}
	// Variant starts with the 3245gs attack (Dec 2022).
	for m, v := range cs.VariantMonthly {
		if v > 0 && m.Before(month(2022, 12)) {
			t.Errorf("variant active before Dec 2022: %v", m)
		}
	}
}

func TestDropWindowBase64(t *testing.T) {
	// Simulate the October 2022 Sandworm drop window at fine scale: the
	// campaign throttles to ~100 sessions/day and only then uploads
	// base64-encoded scripts.
	res, err := simulate.Run(simulate.Config{
		Scale: 20, Seed: 2,
		Start: time.Date(2022, 10, 5, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2022, 10, 20, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	w := &World{Records: res.Store.All(), Registry: res.Registry, AbuseDB: res.AbuseDB, Classifier: classify.New()}
	cs := Mdrfckr(w, "")
	if cs.Base64InDrops == 0 {
		t.Error("no base64 sessions inside the drop window")
	}
	if cs.Base64Outside > 0 {
		t.Errorf("base64 sessions outside drop windows: %d", cs.Base64Outside)
	}
}

func TestCurlProxyCampaign(t *testing.T) {
	w := testWorld(t)
	st := CurlProxy(w)
	if st.Sessions == 0 {
		t.Fatal("no curl_maxred sessions")
	}
	if st.ClientIPs > 4 {
		t.Errorf("client IPs = %d, want <= 4", st.ClientIPs)
	}
	if avg := float64(st.CurlRequests) / float64(st.Sessions); avg < 80 || avg > 120 {
		t.Errorf("curls per session = %.1f, want ~100", avg)
	}
	if st.From.Before(month(2024, 1)) || st.To.After(month(2024, 5)) {
		t.Errorf("campaign window = %v..%v, want Jan-Apr 2024", st.From, st.To)
	}
	// At paper scale the campaign reaches 180/221 honeypots; at test
	// scale session count bounds coverage — require a broad spread.
	if st.Honeypots < st.Sessions*2/3 && st.Honeypots < 180 {
		t.Errorf("honeypots = %d for %d sessions, want broad spread", st.Honeypots, st.Sessions)
	}
}

func TestStorageHeadlineStats(t *testing.T) {
	w := testWorld(t)
	st := Storage(w)
	if st.DownloadSessions == 0 {
		t.Fatal("no download sessions")
	}
	// 80% of downloads: storage != client.
	if frac := float64(st.StorageNEQClient) / float64(st.DownloadSessions); frac < 0.7 {
		t.Errorf("storage!=client = %.2f, want ~0.8+", frac)
	}
	// Far more clients than storage IPs (paper: 32k vs 3k; the gap
	// compresses at coarse scales because storage churn is time-driven
	// while client volume scales — see EXPERIMENTS.md).
	if st.UniqueClientIPs*10 < 18*st.UniqueStorageIPs {
		t.Errorf("clients=%d storage=%d, want clients dominant",
			st.UniqueClientIPs, st.UniqueStorageIPs)
	}
	// ~56% of storage IPs reported by feeds.
	if frac := float64(st.StorageIPsReported) / float64(st.UniqueStorageIPs); frac < 0.40 || frac > 0.70 {
		t.Errorf("reported storage IPs = %.2f, want ~0.56", frac)
	}
	// The dedicated storage pool is capped at the paper's 388 ASes;
	// self-hosted drops (client == storage) add client-side ASes on top.
	if st.StorageASes < 100 || st.StorageASes > 1500 {
		t.Errorf("storage ASes = %d", st.StorageASes)
	}
}

func TestFig17HostingDominant(t *testing.T) {
	w := testWorld(t)
	rows := Fig17(w)
	if len(rows) == 0 {
		t.Fatal("no months")
	}
	hostingWins := 0
	for _, r := range rows {
		best, bestN := "", -1
		for typ, n := range r.ByType {
			if n > bestN {
				best, bestN = typ, n
			}
		}
		if best == "Hosting" {
			hostingWins++
		}
	}
	if hostingWins < len(rows)*3/4 {
		t.Errorf("Hosting dominant in %d/%d months", hostingWins, len(rows))
	}
}

func TestFig14CategoryDistances(t *testing.T) {
	w := testWorld(t)
	f14 := Fig14(w, 8)
	if len(f14.Categories) < 10 {
		t.Fatalf("categories = %d", len(f14.Categories))
	}
	idx := map[string]int{}
	for i, c := range f14.Categories {
		idx[c] = i
	}
	// Distances normalized.
	for i := range f14.Categories {
		for j := range f14.Categories {
			d := f14.Mean.At(i, j)
			if d < 0 || d > 1 {
				t.Fatalf("distance out of range: %f", d)
			}
		}
	}
	// The scout block: two uname variants are closer to each other than
	// either is to the mdrfckr campaign.
	ua, ok1 := idx["uname_a"]
	us, ok2 := idx["uname_svnrm"]
	md, ok3 := idx["mdrfckr"]
	if ok1 && ok2 && ok3 {
		if f14.Mean.At(ua, us) >= f14.Mean.At(ua, md) {
			t.Errorf("scout block not separated: d(uname_a,uname_svnrm)=%.2f d(uname_a,mdrfckr)=%.2f",
				f14.Mean.At(ua, us), f14.Mean.At(ua, md))
		}
	}
}

// TestIntrusionPasswordSessions: the sessions view's 3245gs5662d34
// series counts pure intrusions only (login, no commands), tallied here
// by an independent loop over the records.
func TestIntrusionPasswordSessions(t *testing.T) {
	w := testWorld(t)
	want, wantIPs := map[time.Time]int{}, map[string]bool{}
	for _, r := range w.Records {
		if !IsSSH(r) || len(r.Commands) != 0 {
			continue
		}
		for _, l := range r.Logins {
			if l.Success && l.Password == "3245gs5662d34" {
				want[r.Month()]++
				wantIPs[r.ClientIP] = true
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("no 3245gs intrusion sessions")
	}
	s := w.sessions()
	if !reflect.DeepEqual(s.login3245, want) {
		t.Errorf("login3245 = %v, want %v", s.login3245, want)
	}
	if !reflect.DeepEqual(s.ips3245, wantIPs) {
		t.Errorf("ips3245 has %d IPs, want %d", len(s.ips3245), len(wantIPs))
	}
}

// TestStatsCounts: the section 3.3 tally over a hand-built record set,
// one session of each kind plus a Telnet one.
func TestStatsCounts(t *testing.T) {
	login := func(ok bool) []session.LoginAttempt {
		return []session.LoginAttempt{{Username: "root", Password: "x", Success: ok}}
	}
	recs := []*session.Record{
		{Protocol: session.ProtoSSH},
		{Protocol: session.ProtoSSH, Logins: login(false)},
		{Protocol: session.ProtoSSH, Logins: login(true)},
		{Protocol: session.ProtoSSH, Logins: login(true), Commands: []session.Command{{Raw: "uname"}}},
		{Protocol: session.ProtoSSH, Logins: login(true), Commands: []session.Command{{Raw: "id"}}},
		{Protocol: session.ProtoTelnet, Logins: login(true), Commands: []session.Command{{Raw: "id"}}},
	}
	for i, r := range recs {
		r.ID, r.ClientIP = uint64(i), fmt.Sprintf("10.0.0.%d", i%5)
	}
	got := *Stats(&World{Records: recs})
	want := DatasetStats{Total: 6, SSH: 5, Telnet: 1, Scanning: 1, Scouting: 1,
		Intrusion: 1, CommandExec: 2, UniqueClientIPs: 5}
	if got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

func TestSortedMonths(t *testing.T) {
	a := map[time.Time]int{month(2022, 3): 1, month(2022, 1): 2}
	b := map[time.Time]int{month(2022, 2): 1, month(2022, 1): 1}
	want := []time.Time{month(2022, 1), month(2022, 2), month(2022, 3)}
	if got := sortedMonths(a, b); !reflect.DeepEqual(got, want) {
		t.Errorf("sortedMonths = %v, want %v", got, want)
	}
}

func TestIsMdrfckr(t *testing.T) {
	cases := map[string]bool{
		"":                    false,
		"mdrfckr":             true,
		"xxmdrfckrxx":         true,
		"mdrfck":              false,
		"echo ssh-rsa mdrfck": false,
		"uname -a\necho ssh-rsa AAAA mdrfckr>>.ssh/authorized_keys": true,
	}
	for in, want := range cases {
		if got := isMdrfckr(in); got != want {
			t.Errorf("isMdrfckr(%q) = %v", in, got)
		}
	}
}

func TestSelectK(t *testing.T) {
	w := testWorld(t)
	sel, err := SelectK(w, []int{2, 5, 10, 20, 40}, 150, 7, ClusterConfig{SampleSize: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Points) == 0 {
		t.Fatal("no sweep points")
	}
	// WCSS decreases (weakly) with k.
	for i := 1; i < len(sel.Points); i++ {
		if sel.Points[i].WCSS > sel.Points[i-1].WCSS*1.10 {
			t.Errorf("WCSS rose from k=%d to k=%d", sel.Points[i-1].K, sel.Points[i].K)
		}
	}
	found := false
	for _, p := range sel.Points {
		if p.K == sel.ElbowK {
			found = true
		}
		if p.Silhouette < -1 || p.Silhouette > 1 {
			t.Errorf("silhouette out of range at k=%d: %f", p.K, p.Silhouette)
		}
	}
	if !found {
		t.Errorf("elbow k=%d not among sweep points", sel.ElbowK)
	}
	if sel.Table().String() == "" {
		t.Error("empty table")
	}
	// Invalid k values are rejected.
	if _, err := SelectK(w, []int{0, 1}, 50, 7, ClusterConfig{SampleSize: 300, Seed: 7}); err == nil {
		t.Error("k<2 only should fail")
	}
}

func TestEventCorrelation(t *testing.T) {
	w := testWorld(t)
	rows := EventCorrelation(w)
	if len(rows) != len(EventCalendar) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every documented event window shows a collapse relative to its
	// baseline (the section 10 correlation).
	for _, r := range rows {
		if r.BaselinePerDay == 0 {
			t.Errorf("%s: no baseline activity", r.Event.Name)
			continue
		}
		if ratio := r.DropRatio(); ratio > 0.5 {
			t.Errorf("%s: inside/baseline = %.2f, want a visible drop", r.Event.Name, ratio)
		}
	}
	if EventsTable(rows).String() == "" {
		t.Error("empty table")
	}
}

// TestEventCalendarIsTheDropWindows: the section 10 calendar the
// analysis reads and the drop windows the generator schedules are the
// same eight published periods, kept apart only so the analysis does
// not import generator internals.
func TestEventCalendarIsTheDropWindows(t *testing.T) {
	if len(EventCalendar) != len(botnet.MdrfckrDropWindows) {
		t.Fatalf("%d calendar events, %d drop windows", len(EventCalendar), len(botnet.MdrfckrDropWindows))
	}
	for i, ev := range EventCalendar {
		if w := botnet.MdrfckrDropWindows[i]; !ev.From.Equal(w.From) || !ev.To.Equal(w.To) {
			t.Errorf("event %d (%s) spans %v-%v, the generator drops %v-%v", i, ev.Name, ev.From, ev.To, w.From, w.To)
		}
		if mid := ev.From.Add(ev.To.Sub(ev.From) / 2); !inDropWindow(mid) || inDropWindow(ev.To) {
			t.Errorf("inDropWindow disagrees with event %d (%s)", i, ev.Name)
		}
	}
}

// TestAllRenderersProduceTables exercises every Table() path over the
// shared world so format regressions are caught in-package.
func TestAllRenderersProduceTables(t *testing.T) {
	w := testWorld(t)
	tables := []interface{ String() string }{
		Stats(w).Table(),
		Fig1Table(Fig1(w)),
		SharesTable("fig2", Fig2(w), 5),
		SharesTable("fig3a", Fig3a(w), 5),
		SharesTable("fig3b", Fig3b(w), 5),
		Fig7(w).Table(),
		Fig8Table(Fig8(w)),
		Fig9Table("fig9", Fig9(w, 28)),
		Fig10(w, 5).Table(),
		Fig11(w).Table(),
		Fig12Table(Fig12(w)),
		Mdrfckr(w, "").Fig13Table(),
		Mdrfckr(w, "").Table(),
		EventsTable(EventCorrelation(w)),
		Fig16Table(Fig16(w)),
		Fig17Table(Fig17(w)),
		Table1(w).Table(),
		Storage(w).Table(),
		CurlProxy(w).Table(),
	}
	for i, tb := range tables {
		s := tb.String()
		if len(s) < 20 || !strings.Contains(s, "\n") {
			t.Errorf("table %d suspiciously small: %q", i, s)
		}
	}
	// Fig14 and the cluster tables are heavier; render them once too.
	if s := Fig14(w, 4).Table().String(); len(s) < 20 {
		t.Errorf("fig14 table: %q", s)
	}
	res, err := RunClustering(w, ClusterConfig{K: 6, SampleSize: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Fig5Table(0).String(); len(s) < 20 {
		t.Errorf("fig5 table: %q", s)
	}
	if s := Fig6Table(res.Fig6(3)).String(); len(s) < 20 {
		t.Errorf("fig6 table: %q", s)
	}
	// CSV rendering is available on every table.
	if csv := Stats(w).Table().CSV(); !strings.Contains(csv, ",") {
		t.Errorf("csv = %q", csv)
	}
}
