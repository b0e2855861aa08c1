package query

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"honeynet/internal/session"
	"honeynet/internal/simulate"
	"honeynet/internal/store"
)

const explainGolden = "testdata/explain_readme.golden"

// readmeStatements returns the ten paper-mapped statements of the
// README's "Querying the store" section, so the golden below is over
// what the documentation shows.
func readmeStatements(t *testing.T) []string {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), "Ten queries, mapped to the paper:")
	if !ok {
		t.Fatal("README: no \"Ten queries\" paragraph")
	}
	_, rest, _ = strings.Cut(rest, "```sql\n")
	block, _, _ := strings.Cut(rest, "```")
	var out []string
	for _, line := range strings.Split(block, "\n") {
		if line != "" && !strings.HasPrefix(line, "--") {
			out = append(out, line)
		}
	}
	if len(out) != 10 {
		t.Fatalf("README lists %d statements, want ten", len(out))
	}
	return out
}

// explainOutput runs every statement with EXPLAIN over the store
// `hnsim -scale 5000 -seed 42 -store` writes and renders what hnquery
// would print: the plan lines, then the result rows.
func explainOutput(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = simulate.Run(simulate.Config{Scale: 5000, Seed: 42, Discard: true, Sink: func(r *session.Record) {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	var b strings.Builder
	for _, stmt := range readmeStatements(t) {
		res, err := Run(src, "EXPLAIN "+stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		b.WriteString(">> " + stmt + "\n")
		for _, line := range res.Explain {
			b.WriteString(line + "\n")
		}
		b.WriteString(strings.Join(res.Columns, "\t") + "\n")
		for _, row := range res.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			b.WriteString(strings.Join(cells, "\t") + "\n")
		}
	}
	return b.String()
}

// explainCounters says, per EXPLAIN line of pruning counters, how each
// number may differ from the recorded one: '=' not at all, '+' only
// upwards (more pruned, more answered from metadata), '-' only
// downwards (less read, less decoded), '~' freely (a segment the zone
// refutes is never Bloom-probed).
var explainCounters = map[string]string{
	"segments":               "=+-~",
	"answered from metadata": "++",
	"scanned":                "--=",
	"records":                "-=",
	"columnar":               "+--",
}

// TestExplainGoldenOverReadmeStatements pins what the planner decides
// for the README's ten statements against the output recorded before
// the planner was rebuilt around one lowered plan: the plan, time range
// and ip route lines and every result row byte-equal, every pruning
// counter equal or moved in the better direction. Delete the golden
// file to record a new one.
func TestExplainGoldenOverReadmeStatements(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the 1:5000 corpus")
	}
	got := explainOutput(t)
	golden, err := os.ReadFile(explainGolden)
	if os.IsNotExist(err) {
		if err := os.WriteFile(explainGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; rerun", explainGolden)
	}
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(golden), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines of output, golden has %d", len(gotLines), len(wantLines))
	}
	num := regexp.MustCompile(`\d+`)
	for i, want := range wantLines {
		got := gotLines[i]
		name, _, _ := strings.Cut(want, ":")
		dirs, counted := explainCounters[name]
		if !counted {
			if got != want {
				t.Errorf("line %d:\n got %q\nwant %q", i+1, got, want)
			}
			continue
		}
		g, w := num.FindAllString(got, -1), num.FindAllString(want, -1)
		if num.ReplaceAllString(got, "N") != num.ReplaceAllString(want, "N") || len(g) != len(dirs) {
			t.Errorf("line %d:\n got %q\nwant %q", i+1, got, want)
			continue
		}
		for j, dir := range dirs {
			gv, _ := strconv.Atoi(g[j])
			wv, _ := strconv.Atoi(w[j])
			if dir == '=' && gv != wv || dir == '+' && gv < wv || dir == '-' && gv > wv {
				t.Errorf("line %d, number %d (%c):\n got %q\nwant %q", i+1, j+1, dir, got, want)
			}
		}
	}
}
