package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"honeynet/internal/query"
	"honeynet/internal/session"
	"honeynet/internal/store"
)

// The ten paper-mapped statements of the README's "Querying the store",
// in order. %s in the Figure 9 dossier is an address drawn from the
// corpus. group names the per-layer metric the statement's time goes to.
var mixStatements = []struct{ text, group string }{
	{`SELECT month, count(*) GROUP BY month ORDER BY month`, "meta"},
	{`SELECT month, kind, count(*) GROUP BY month, kind ORDER BY month, kind`, "meta"},
	{`SELECT proto, count(*) GROUP BY proto`, "meta"},
	{`SELECT count(*) WHERE login_ok = true AND state_changed = false`, "projection"},
	{`SELECT count(*), count(distinct ip) WHERE user = 'root'`, "distinct"},
	{`SELECT count(*), count(distinct ip) WHERE cmd ~ /mdrfckr/`, "regex_scan"},
	{`SELECT month, count(*) WHERE cmd ~ /mdrfckr/ GROUP BY month ORDER BY month`, "regex_scan"},
	{`SELECT start, user, cmds, dls WHERE ip = '%s' LIMIT 20`, "bloom_ip"},
	{`SELECT month, sum(dls), count(distinct ip) WHERE dls > 0 GROUP BY month`, "groupby"},
	{`SELECT avg(duration), max(duration) WHERE login_ok = true`, "projection"},
}

// buildFleetDir runs the corpus once through the ingest rig with
// default options and leaves a sealed two-shard fleet directory.
func buildFleetDir(dir string, c *corpus) (string, error) {
	rig, err := startIngestRig(dir)
	if err != nil {
		return "", err
	}
	ps, err := rig.pass(c, nil)
	if err = errors.Join(err, rig.close()); err != nil {
		return "", err
	}
	for n := range ps.appended {
		if ps.appended[n] != ps.commitOK[n] {
			return "", fmt.Errorf("fleet dir: edge %d appended %d, collector committed %d", n, ps.appended[n], ps.commitOK[n])
		}
	}
	return rig.coll.dir, nil
}

// queryMix is the query_mix workload: one analyst; an op is one round —
// open the fleet directory read-only, run the ten statements in order,
// close.
type queryMix struct {
	cfg    config
	dir    string
	fleet  string
	corpus *corpus
	stmts  []string
	want   [][][]string // oracle: per statement, rows of rendered cells

	rounds, wrong                  int
	blocksRead, blocksSkip, pruned int64
	bloomSkips, stripes            int64
	examined, returned             int64
	openMS, compileUS              []float64
	groupMS                        map[string][]float64
}

func newQueryMix(cfg config) *queryMix { return &queryMix{cfg: cfg, groupMS: map[string][]float64{}} }

func (w *queryMix) setup(dir string) error {
	var err error
	if w.corpus, err = buildCorpus(w.cfg); err != nil {
		return err
	}
	w.dir = dir
	if w.fleet, err = buildFleetDir(dir, w.corpus); err != nil {
		return err
	}
	ip := busiestIP(w.corpus.recs)
	for _, s := range mixStatements {
		text := s.text
		if s.group == "bloom_ip" {
			text = fmt.Sprintf(text, ip)
		}
		w.stmts = append(w.stmts, text)
	}
	w.want = oracle(w.corpus, ip)
	if _, err := w.slice(nil); err != nil { // warm-up
		return fmt.Errorf("warm-up: %w", err)
	}
	if w.wrong > 0 {
		return fmt.Errorf("warm-up: %d statement(s) disagree with the oracle", w.wrong)
	}
	*w = queryMix{cfg: w.cfg, dir: w.dir, fleet: w.fleet, corpus: w.corpus, stmts: w.stmts, want: w.want, groupMS: map[string][]float64{}}
	return nil
}

// busiestIP is the client address with the most sessions (the smallest
// such address on a tie): a dossier long enough for LIMIT 20 to cut.
func busiestIP(recs []*session.Record) string {
	count := map[string]int{}
	for _, r := range recs {
		count[r.ClientIP]++
	}
	best := ""
	for ip, n := range count {
		if n > count[best] || (n == count[best] && ip < best) {
			best = ip
		}
	}
	return best
}

func (w *queryMix) slice(tr *spanLog) (sliceStat, error) {
	op := w.rounds
	w.rounds++
	results := make([]*query.Result, len(w.stmts))
	cpu0, start := cpuTime(), time.Now()
	root := tr.open("analyst.round", op, -1, start)
	fl, err := store.OpenFleet(w.fleet, store.Options{ReadOnly: true})
	if err != nil {
		return sliceStat{}, err
	}
	tOpen := time.Now()
	tr.add("store.open_fleet", op, root, start, tOpen)
	var first time.Time
	var compile time.Duration
	groups := map[string]time.Duration{}
	for i, text := range w.stmts {
		t0 := time.Now()
		c, err := query.Compile(text)
		if err != nil {
			fl.Close()
			return sliceStat{}, fmt.Errorf("statement %d: %w", i+1, err)
		}
		t1 := time.Now()
		results[i], err = c.Execute(fl)
		if err != nil {
			fl.Close()
			return sliceStat{}, fmt.Errorf("statement %d: %w", i+1, err)
		}
		t2 := time.Now()
		if i == 0 {
			first = t2
		}
		if tr != nil {
			g := mixStatements[i].group
			tr.add("query.compile", op, root, t0, t1)
			tr.add("query.execute."+g, op, root, t1, t2)
			compile += t1.Sub(t0)
			groups[g] += t2.Sub(t1)
		}
	}
	tc := time.Now()
	if err := fl.Close(); err != nil {
		return sliceStat{}, err
	}
	end := time.Now()
	tr.add("store.close_fleet", op, root, tc, end)
	tr.close(root, end)
	st := sliceStat{ops: 1, wall: end.Sub(start), cpu: cpuTime() - cpu0,
		lat: []float64{ms(end.Sub(start))}, ttq: []float64{ms(first.Sub(start))}}

	// Outside the timed round: every statement's rows against the oracle.
	bad := false
	for i, res := range results {
		if !rowsEqual(res.Rows, w.want[i]) {
			bad = true
		}
		s := res.Stats
		w.blocksRead += s.BlocksRead
		w.blocksSkip += s.BlocksSkipped + s.BlocksZonePruned
		w.pruned += int64(s.TimePruned + s.BloomPruned)
		w.bloomSkips += int64(s.BloomPruned)
		w.stripes += s.StripesRead
		w.examined += s.ScannedRecords
		w.returned += int64(len(res.Rows))
	}
	if bad {
		w.wrong++
		st.failed = 1
	}
	if tr != nil {
		w.openMS = append(w.openMS, ms(tOpen.Sub(start)))
		w.compileUS = append(w.compileUS, us(compile))
		for g, d := range groups {
			w.groupMS[g] = append(w.groupMS[g], ms(d))
		}
	}
	return st, nil
}

func (w *queryMix) finish(m metricSet, _ *spanLog) (int, error) {
	n := float64(w.rounds)
	m["simulate.run_s"] = w.corpus.simS
	m["query.compile_us"] = median(w.compileUS)
	for g, v := range w.groupMS {
		m["query."+g+"_p50_ms"] = median(v)
	}
	m["store.open_ms"] = median(w.openMS)
	m["store.blocks_read_per_round"] = float64(w.blocksRead) / n
	m["store.blocks_skipped_per_round"] = float64(w.blocksSkip) / n
	m["store.segments_pruned_per_round"] = float64(w.pruned) / n
	m["store.bloom_skips_per_round"] = float64(w.bloomSkips) / n
	m["store.stripes_read_per_round"] = float64(w.stripes) / n
	if w.returned > 0 {
		m["store.rows_examined_per_row_returned"] = float64(w.examined) / float64(w.returned)
	}
	// The op already counted each wrong round as failed.
	return 0, dirMetrics(m, w.fleet, len(w.corpus.recs))
}

func (w *queryMix) probes(m metricSet) {
	recordProbes(m, w.corpus.sample(), filepath.Join(w.dir, "probe"))
}

func (w *queryMix) close() error { return nil }

// rowsEqual compares a statement's rows with the oracle's rendered
// cells; floats compare to a relative 1e-9 because a fleet sums shard
// by shard.
func rowsEqual(got [][]store.Value, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j, v := range got[i] {
			if v.Kind == store.ValFloat {
				f, err := strconv.ParseFloat(want[i][j], 64)
				if err != nil || math.Abs(v.Float-f) > 1e-9*math.Max(1, math.Abs(f)) {
					return false
				}
				continue
			}
			if v.String() != want[i][j] {
				return false
			}
		}
	}
	return true
}

// oracle answers the ten statements with plain Go loops over the
// in-memory corpus — no planner, no store — in the order and rendering
// the statements ask for.
func oracle(c *corpus, ip string) [][][]string {
	const monthFmt = "2006-01"
	itoa := func(n int) string { return strconv.Itoa(n) }
	mdrfckr := regexp.MustCompile(`mdrfckr`)

	byMonth := map[string]int{}
	byMonthKind := map[string]int{}
	byProto := map[string]int{}
	quiet, root, camp := 0, 0, 0
	rootIPs, campIPs := map[string]bool{}, map[string]bool{}
	campMonth := map[string]int{}
	dlSum := map[string]int{}
	dlIPs := map[string]map[string]bool{}
	var durSum, durMax float64
	durN := 0
	for _, r := range c.recs {
		mo := r.Month().Format(monthFmt)
		byMonth[mo]++
		byMonthKind[fmt.Sprintf("%s|%d", mo, int(r.Kind()))]++
		byProto[r.Protocol]++
		if r.LoggedIn() && !r.StateChanged {
			quiet++
		}
		for _, l := range r.Logins {
			if l.Username == "root" {
				root++
				rootIPs[r.ClientIP] = true
				break
			}
		}
		if mdrfckr.MatchString(r.CommandText()) {
			camp++
			campIPs[r.ClientIP] = true
			campMonth[mo]++
		}
		if len(r.Downloads) > 0 {
			dlSum[mo] += len(r.Downloads)
			if dlIPs[mo] == nil {
				dlIPs[mo] = map[string]bool{}
			}
			dlIPs[mo][r.ClientIP] = true
		}
		if r.LoggedIn() {
			d := r.End.Sub(r.Start).Seconds()
			durSum += d
			durMax = math.Max(durMax, d)
			durN++
		}
	}
	sortedKeys := func(m map[string]int) []string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}

	out := make([][][]string, len(mixStatements))
	for _, mo := range sortedKeys(byMonth) {
		out[0] = append(out[0], []string{mo, itoa(byMonth[mo])})
	}
	for _, k := range sortedKeys(byMonthKind) { // "month|kind digit" sorts by month, then kind
		kind, _ := strconv.Atoi(k[len(monthFmt)+1:])
		out[1] = append(out[1], []string{k[:len(monthFmt)], session.Kind(kind).String(), itoa(byMonthKind[k])})
	}
	for _, p := range sortedKeys(byProto) {
		out[2] = append(out[2], []string{p, itoa(byProto[p])})
	}
	out[3] = [][]string{{itoa(quiet)}}
	out[4] = [][]string{{itoa(root), itoa(len(rootIPs))}}
	out[5] = [][]string{{itoa(camp), itoa(len(campIPs))}}
	for _, mo := range sortedKeys(campMonth) {
		out[6] = append(out[6], []string{mo, itoa(campMonth[mo])})
	}
	out[7] = dossier(c, ip, 20)
	for _, mo := range sortedKeys(dlSum) {
		out[8] = append(out[8], []string{mo, itoa(dlSum[mo]), itoa(len(dlIPs[mo]))})
	}
	if durN > 0 {
		out[9] = [][]string{{strconv.FormatFloat(durSum/float64(durN), 'g', -1, 64), strconv.FormatFloat(durMax, 'g', -1, 64)}}
	}
	return out
}

// dossier is the Figure 9 statement's answer: one address's sessions in
// the fleet's canonical row order, cut at limit.
func dossier(c *corpus, ip string, limit int) [][]string {
	var out [][]string
	for _, r := range c.rowOrder(func(r *session.Record) bool { return r.ClientIP == ip }) {
		if len(out) == limit {
			break
		}
		user := ""
		if len(r.Logins) > 0 {
			user = r.Logins[0].Username
		}
		out = append(out, []string{r.Start.UTC().Format(time.RFC3339), user, strconv.Itoa(len(r.Commands)), strconv.Itoa(len(r.Downloads))})
	}
	return out
}
