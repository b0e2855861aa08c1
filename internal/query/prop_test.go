package query

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"

	"honeynet/internal/session"
	"honeynet/internal/store"
)

// atom pairs one DSL predicate with the hand-rolled Filter a caller
// would have written before the Query API existed. The property test
// asserts the two agree record-for-record, byte-for-byte — on every
// composition, over a single store and over a fleet directory.
type atom struct {
	dsl string
	fn  store.Filter
}

func atoms() []atom {
	return []atom{
		{`proto = 'ssh'`, func(r *session.Record) bool { return r.Protocol == session.ProtoSSH }},
		{`proto != 'telnet'`, func(r *session.Record) bool { return r.Protocol != session.ProtoTelnet }},
		{`kind = scanning`, func(r *session.Record) bool { return r.Kind() == session.Scanning }},
		{`kind = command-execution`, func(r *session.Record) bool { return r.Kind() == session.CommandExec }},
		{`month = '2021-06'`, func(r *session.Record) bool { return r.Month().Format("2006-01") == "2021-06" }},
		{`month >= '2021-06'`, func(r *session.Record) bool { return r.Month().Format("2006-01") >= "2021-06" }},
		{`start < '2021-06-15'`, func(r *session.Record) bool {
			return r.Start.Format("2006-01-02") < "2021-06-15"
		}},
		{`ip = '203.0.1.42'`, func(r *session.Record) bool { return r.ClientIP == "203.0.1.42" }},
		{`ip ~ /\.42$/`, func(r *session.Record) bool { return strings.HasSuffix(r.ClientIP, ".42") }},
		{`user = 'root'`, func(r *session.Record) bool {
			for _, l := range r.Logins {
				if l.Username == "root" {
					return true
				}
			}
			return false
		}},
		{`pass ~ /admin/`, func(r *session.Record) bool {
			for _, l := range r.Logins {
				if strings.Contains(l.Password, "admin") {
					return true
				}
			}
			return false
		}},
		{`cmd ~ /mdrfckr/`, func(r *session.Record) bool { return strings.Contains(r.CommandText(), "mdrfckr") }},
		{`cmd ~ /wget/`, func(r *session.Record) bool { return strings.Contains(r.CommandText(), "wget") }},
		{`login_ok = true`, func(r *session.Record) bool { return r.LoggedIn() }},
		{`state_changed = false`, func(r *session.Record) bool { return !r.StateChanged }},
		{`logins >= 1`, func(r *session.Record) bool { return len(r.Logins) >= 1 }},
		{`port > 40100`, func(r *session.Record) bool { return r.ClientPort > 40100 }},
		{`duration > 45`, func(r *session.Record) bool { return r.End.Sub(r.Start).Seconds() > 45 }},
		{`dls = 0`, func(r *session.Record) bool { return len(r.Downloads) == 0 }},
		{`hp = 'hp-1'`, func(r *session.Record) bool { return r.HoneypotID == "hp-1" }},
		// Leaves the column kernels decide from a fragment: negations,
		// counts, flags, and command patterns with no necessary literal,
		// with one spanning the newline that joins two commands, negated.
		{`user != 'root'`, func(r *session.Record) bool {
			for _, l := range r.Logins {
				if l.Username == "root" {
					return false
				}
			}
			return true
		}},
		{`pass = 'admin'`, func(r *session.Record) bool {
			for _, l := range r.Logins {
				if l.Password == "admin" {
					return true
				}
			}
			return false
		}},
		{`login_ok != true`, func(r *session.Record) bool { return !r.LoggedIn() }},
		{`logins = 0`, func(r *session.Record) bool { return len(r.Logins) == 0 }},
		{`cmds >= 2`, func(r *session.Record) bool { return len(r.Commands) >= 2 }},
		{`dls > 0`, func(r *session.Record) bool { return len(r.Downloads) > 0 }},
		{`state_changed = true`, func(r *session.Record) bool { return r.StateChanged }},
		{`timeout = false`, func(r *session.Record) bool { return !r.TimedOut }},
		{`cmd ~ /\d{3}/`, func(r *session.Record) bool { return digits3.MatchString(r.CommandText()) }},
		{`cmd ~ /sh\necho/`, func(r *session.Record) bool { return strings.Contains(r.CommandText(), "sh\necho") }},
		{`cmd !~ /wget/`, func(r *session.Record) bool { return !strings.Contains(r.CommandText(), "wget") }},
		{`cmd = ''`, func(r *session.Record) bool { return r.CommandText() == "" }},
		{`cmd > 'wget http://x/5'`, func(r *session.Record) bool { return r.CommandText() > "wget http://x/5" }},
	}
}

var digits3 = regexp.MustCompile(`\d{3}`)

// genPred builds a random predicate of bounded depth, returning the
// DSL text and the equivalent closure.
func genPred(rng *rand.Rand, depth int) (string, store.Filter) {
	as := atoms()
	if depth == 0 || rng.Intn(3) == 0 {
		a := as[rng.Intn(len(as))]
		return a.dsl, a.fn
	}
	switch rng.Intn(3) {
	case 0: // AND
		ld, lf := genPred(rng, depth-1)
		rd, rf := genPred(rng, depth-1)
		return fmt.Sprintf("(%s AND %s)", ld, rd),
			func(r *session.Record) bool { return lf(r) && rf(r) }
	case 1: // OR
		ld, lf := genPred(rng, depth-1)
		rd, rf := genPred(rng, depth-1)
		return fmt.Sprintf("(%s OR %s)", ld, rd),
			func(r *session.Record) bool { return lf(r) || rf(r) }
	default: // NOT
		d, f := genPred(rng, depth-1)
		return fmt.Sprintf("NOT %s", d),
			func(r *session.Record) bool { return !f(r) }
	}
}

// recordBytes canonically encodes a record stream for byte-level
// comparison.
func recordBytes(t *testing.T, recs []*session.Record) string {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		line, err := session.AppendJSON(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	return string(buf)
}

// dslRecords runs `SELECT * WHERE dsl` through the planner (predicate
// pushdown, Bloom routing, masked decode all active).
func dslRecords(t *testing.T, src Source, dsl string) []*session.Record {
	t.Helper()
	res, err := Run(src, "SELECT * WHERE "+dsl)
	if err != nil {
		t.Fatalf("%s: %v", dsl, err)
	}
	return res.Records
}

// filterRecords is the oracle: the unfiltered, unprojected row query —
// no predicate for the planner to push anywhere, full decode — with the
// same predicate applied as a plain Go func over what comes back.
func filterRecords(t *testing.T, src Source, keep func(*session.Record) bool) []*session.Record {
	t.Helper()
	res, err := src.RunQuery(&store.Query{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var out []*session.Record
	for res.Next() {
		if keep(res.Record()) {
			out = append(out, res.Record())
		}
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// aggRow runs `SELECT count(*), count(distinct ip) WHERE dsl`: the
// aggregate form, whose blocks decode only what it returns once the
// column bitmap decides every row.
func aggRow(t *testing.T, src Source, dsl string) string {
	t.Helper()
	res, err := Run(src, "SELECT count(*), count(distinct ip) WHERE "+dsl)
	if err != nil {
		t.Fatalf("%s: %v", dsl, err)
	}
	if len(res.Rows) == 0 {
		return "0 0"
	}
	return res.Rows[0][0].String() + " " + res.Rows[0][1].String()
}

// aggLoop is aggRow's Go loop over the oracle's records.
func aggLoop(recs []*session.Record) string {
	ips := map[string]bool{}
	for _, r := range recs {
		ips[r.ClientIP] = true
	}
	return fmt.Sprintf("%d %d", len(recs), len(ips))
}

// TestDSLEquivalentToFilterProperty is the PR's contract: every
// generated DSL predicate must return the byte-identical record set to
// the hand-rolled Go func it mirrors — over a single store and over a
// fleet directory — no matter what the planner pruned or skipped
// decoding; and its count(*), count(distinct ip) must equal a Go loop's
// over that set.
func TestDSLEquivalentToFilterProperty(t *testing.T) {
	s, _ := sealedStore(t, 600, 3)

	fdir := t.TempDir()
	if err := store.WriteFleetMarker(fdir); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		sh, err := store.Open(store.ShardDir(fdir, fmt.Sprintf("n%d", n)), store.Options{BlockBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			if err := sh.Append(mkRecord((n+i)%3, i*3+n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sh.Seal(); err != nil {
			t.Fatal(err)
		}
		sh.Close()
	}
	fl, err := store.OpenFleet(fdir, store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 120; i++ {
		dsl, fn := genPred(rng, 3)
		for _, src := range []struct {
			name string
			src  Source
		}{{"store", s}, {"fleet", fl}} {
			recs := filterRecords(t, src.src, fn)
			got := recordBytes(t, dslRecords(t, src.src, dsl))
			if want := recordBytes(t, recs); got != want {
				t.Fatalf("%s: DSL %q diverged from hand-rolled filter\ndsl:    %d bytes\nfilter: %d bytes",
					src.name, dsl, len(got), len(want))
			}
			if got, want := aggRow(t, src.src, dsl), aggLoop(recs); got != want {
				t.Fatalf("%s: aggregate over DSL %q = %s, the Go loop counts %s", src.name, dsl, got, want)
			}
		}
	}
}

// FuzzParseQuery asserts the parser's total-function contract: no
// input panics, and every rejection is a *SyntaxError whose position
// lands inside the input.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"",
		"SELECT *",
		"SELECT month, count(*) WHERE proto = 'ssh' AND cmd ~ /mdrfckr/ GROUP BY month ORDER BY month",
		"EXPLAIN SELECT kind, count(*), count(distinct ip) GROUP BY kind ORDER BY count(*) DESC LIMIT 3",
		"SELECT * WHERE NOT (user = 'root' OR pass ~ /^123/) LIMIT 10",
		"SELECT sum(dls), avg(duration) WHERE start >= '2021-06-01T00:00:00Z'",
		"SELECT count(*) WHERE month = '2021-06' AND duration > 1h30m",
		"select COUNT(*) where PORT <> 22",
		"SELECT \x00\xff",
		"SELECT count(*) WHERE cmd ~ /((((/",
		"SELECT count(*) WHERE ip = '\\'",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err == nil {
			// Whatever parses must also compile or fail cleanly.
			_, err = compileStmt(st)
		}
		checkPositioned(t, src, err)

		// The bare-expression entry (-where) shares the contract.
		if _, werr := CompileFilter(src); werr != nil {
			checkPositioned(t, src, werr)
		}
	})
}

func checkPositioned(t *testing.T, src string, err error) {
	t.Helper()
	if err == nil {
		return
	}
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("%q: error %v is not a *SyntaxError", src, err)
	}
	if se.Pos < 0 || se.Pos > len(src) {
		t.Fatalf("%q: error position %d outside input (len %d)", src, se.Pos, len(src))
	}
	if se.Msg == "" {
		t.Fatalf("%q: empty error message", src)
	}
	_ = utf8.ValidString(se.Msg)
}
