package core

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"honeynet/internal/analysis"
	"honeynet/internal/botnet"
	"honeynet/internal/obs"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
)

func TestSimulateAndRunAll(t *testing.T) {
	tracer := obs.NewTracer()
	p, err := Simulate(simulate.Config{
		Scale:  20000,
		Seed:   5,
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.RunAll(&buf, analysis.ClusterConfig{K: 10, SampleSize: 150, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	// Figures 2-4, 14 and Table 1 tally from one classified view of the
	// command sessions: every figure together classifies them once.
	var passes int64
	for _, ph := range tracer.Phases() {
		if ph.Name == "classify.batch" {
			passes = ph.Count
		}
	}
	if passes != 1 {
		t.Errorf("-fig all ran %d classify.batch passes, want 1", passes)
	}
	out := buf.String()
	for _, want := range []string{
		"Dataset statistics (section 3.3)",
		"Figure 1:", "Figure 2:", "Figure 3a:", "Figure 3b:",
		"Figure 4a:", "Figure 4b:", "Figure 5:", "Figure 6:",
		"Section 7:", "Figure 7:", "Figure 8:", "Figure 9 (1-week recall)",
		"Figure 9 (all recall)", "Figure 10:", "Figure 11:", "Figure 12:",
		"Figure 13:", "Section 9:", "Section 10:", "Figure 14:", "Figure 16:", "Figure 17:",
		"Table 1:", "Appendix C:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

func TestFeedsPopulated(t *testing.T) {
	p, err := Simulate(simulate.Config{Scale: 10000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	// The Shadowserver-style key prevalence is installed.
	if n := p.World.AbuseDB.CompromisedHosts(botnet.MdrfckrKeyHash()); n != 13368 {
		t.Errorf("compromised hosts = %d, want 13368", n)
	}
	key, n := p.World.AbuseDB.MostPrevalentKey()
	if key != botnet.MdrfckrKeyHash() || n != 13368 {
		t.Errorf("most prevalent = %q (%d)", key, n)
	}
	// Some campaign IPs are on the Killnet list (scaled 988/270k).
	cs := analysis.Mdrfckr(p.World, botnet.MdrfckrKeyHash())
	if cs.CompromisedHosts != 13368 {
		t.Errorf("case study key prevalence = %d", cs.CompromisedHosts)
	}
	if cs.UniqueIPs > 0 && cs.KillnetOverlap == 0 {
		t.Error("no Killnet overlap despite campaign IPs")
	}
}

func TestFromRecords(t *testing.T) {
	recs := []*session.Record{
		{ID: 1, ClientIP: "10.0.0.1", Protocol: session.ProtoSSH,
			Logins:   []session.LoginAttempt{{Username: "root", Password: "x", Success: true}},
			Commands: []session.Command{{Raw: "uname -a", Known: true}}},
	}
	p := FromRecords(recs, nil)
	if len(p.World.Records) != 1 {
		t.Fatalf("store len = %d", len(p.World.Records))
	}
	if p.World.Classifier == nil || p.World.AbuseDB == nil {
		t.Error("defaults not installed")
	}
	t1 := analysis.Table1(p.World)
	if t1.PerCat["uname_a"] != 1 {
		t.Errorf("classification over loaded records: %+v", t1.PerCat)
	}
}

// TestFigAllBuildsEachViewOnce: the views are the only readers of the
// dataset, and a run pays for exactly the views its figures read.
func TestFigAllBuildsEachViewOnce(t *testing.T) {
	sim, err := Simulate(simulate.Config{Scale: 20000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		selector string
		workers  int
		want     map[string]int64
	}{
		{"all", 1, map[string]int64{"view.sessions": 1, "view.commands": 1, "classify.batch": 1}},
		{"all", 8, map[string]int64{"view.sessions": 1, "view.commands": 1, "classify.batch": 1}},
		{"7", 1, map[string]int64{"view.sessions": 0, "view.commands": 1, "classify.batch": 0}},
		{"10", 1, map[string]int64{"view.sessions": 1, "view.commands": 0, "classify.batch": 0}},
	} {
		// A fresh World per run: the views are memoized on it.
		tracer := obs.NewTracer()
		p := FromRecords(sim.World.Records, &analysis.World{
			Registry: sim.World.Registry, AbuseDB: sim.World.AbuseDB,
			Workers: c.workers, Tracer: tracer,
		})
		ccfg := analysis.ClusterConfig{K: 10, SampleSize: 150, Seed: 5}
		if err := p.Run(io.Discard, c.selector, ccfg, false); err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, ph := range tracer.Phases() {
			got[ph.Name] = ph.Count
		}
		for name, want := range c.want {
			if got[name] != want {
				t.Errorf("-fig %s -workers %d: %d %s spans, want %d", c.selector, c.workers, got[name], name, want)
			}
		}
	}
}

// TestRunAllDeterministic: the same seed must reproduce byte-identical
// output — the reproducibility contract of the whole harness.
func TestRunAllDeterministic(t *testing.T) {
	render := func() string {
		p, err := Simulate(simulate.Config{Scale: 20000, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.RunAll(&buf, analysis.ClusterConfig{K: 8, SampleSize: 100, Seed: 77}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := render()
	b := render()
	if a != b {
		t.Error("same seed produced different RunAll output")
	}
	if len(a) < 10000 {
		t.Errorf("output suspiciously small: %d bytes", len(a))
	}
}

// TestSingleFigureIsASectionOfAll: Run and RunAll read one figure
// table, so every selector's text output is a verbatim substring of
// "all" over the same pipeline. The two exceptions are by design:
// kselect is on demand only, and Figure 5 alone lists every cluster
// where "all" stops at 12, so its rows are a superset of that section's.
func TestSingleFigureIsASectionOfAll(t *testing.T) {
	p, err := Simulate(simulate.Config{Scale: 5000, Seed: 9, End: botnet.WindowStart.AddDate(0, 14, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// K above 12, so that Figure 5's two modes do differ.
	ccfg := analysis.ClusterConfig{K: 16, SampleSize: 120, Seed: 9}
	run := func(selector string) string {
		t.Helper()
		var buf bytes.Buffer
		if err := p.Run(&buf, selector, ccfg, false); err != nil {
			t.Fatalf("fig %q: %v", selector, err)
		}
		return buf.String()
	}
	all := run("all")
	for _, sel := range Selectors() {
		switch sel {
		case "all", "5", "kselect":
			continue
		}
		if one := run(sel); one == "" || !strings.Contains(all, one) {
			t.Errorf("fig %q is not a verbatim section of all:\n%s", sel, one)
		}
	}

	// rows returns a rendered table's lines with the column padding
	// (which depends on the widest row present) squeezed out.
	rows := func(table string) []string {
		var out []string
		for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
			if f := strings.Fields(line); len(f) > 0 && strings.Trim(line, "- ") != "" {
				out = append(out, strings.Join(f, " "))
			}
		}
		return out
	}
	full := rows(run("5"))
	i := strings.Index(all, "Figure 5:")
	if i < 0 {
		t.Fatal("all has no Figure 5 section")
	}
	section := rows(all[i : i+strings.Index(all[i:], "\n\n")])
	if len(full) <= len(section) {
		t.Fatalf("-fig 5 has %d rows, all's section %d: want strictly more", len(full), len(section))
	}
	have := map[string]bool{}
	for _, r := range full {
		have[r] = true
	}
	for _, r := range section {
		if !have[r] {
			t.Errorf("row of all's Figure 5 section missing from -fig 5: %q", r)
		}
	}
}
