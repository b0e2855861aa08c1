package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"honeynet"
	"honeynet/internal/analysis"
	"honeynet/internal/botnet"
	"honeynet/internal/core"
	"honeynet/internal/query"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
)

// TestFigAllOracle pins `hnanalyze -fig all -scale 5000 -seed 42`, and
// the same with -where "start >= '2022-06-01'", to the SHA-256 of their
// output at -workers 1 and at the default. Every byte-identity claim a
// change makes is checked against these two hashes. A change that alters
// the simulated bytes on purpose (a new storage-AS allocation, say)
// re-records them in the same change and says why.
func TestFigAllOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("renders -fig all at 1:5000 four times")
	}
	const (
		all   = "b690bc7875ab9eddcfa35e935e024850da2d247c6efcbf2d01daf24939549af2"
		where = "18fe54f73f9ff4664e56152c63ae918670a3067c82a645482e57cfb78673e67a"
	)
	pre, err := query.CompileFilter("start >= '2022-06-01'")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 0} { // 0: the -workers default, GOMAXPROCS
		p, err := core.Simulate(simulate.Config{Scale: 5000, Seed: 42, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ccfg := honeynet.ClusterConfig{K: 90, SampleSize: 2000, Seed: 42, Workers: workers}
		render := func(p *core.Pipeline) string {
			t.Helper()
			h := sha256.New()
			if err := p.Run(h, "all", ccfg, false); err != nil {
				t.Fatal(err)
			}
			return hex.EncodeToString(h.Sum(nil))
		}
		if got := render(p); got != all {
			t.Errorf("-workers %d: -fig all hashes %s, want %s", workers, got, all)
		}
		if got := render(narrow(p, pre)); got != where {
			t.Errorf("-workers %d: -fig all -where hashes %s, want %s", workers, got, where)
		}
	}
}

// TestNarrowLeavesParentAlone: -where builds a new pipeline and leaves
// the one it narrows as it was. Rendering p before and after narrow(p)
// must give the same bytes, and the narrowed pipeline must render what
// core.FromRecords renders over the kept records in a fresh World.
func TestNarrowLeavesParentAlone(t *testing.T) {
	p, err := core.Simulate(simulate.Config{Scale: 20000, Seed: 42, End: botnet.WindowStart.AddDate(0, 9, 0)})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := query.CompileFilter("start >= '2022-06-01'")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := honeynet.ClusterConfig{K: 10, SampleSize: 150, Seed: 42}
	render := func(p *core.Pipeline) string {
		t.Helper()
		h := sha256.New()
		if err := p.Run(h, "all", ccfg, false); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	before := render(p)
	narrowed := render(narrow(p, pre))
	if after := render(p); after != before {
		t.Fatalf("-fig all of the parent changed after narrow: %s, was %s", after, before)
	}
	var kept []*session.Record
	for _, r := range p.World.Records {
		if pre(r) {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 || len(kept) == len(p.World.Records) {
		t.Fatalf("the predicate keeps %d of %d sessions: it must split the dataset", len(kept), len(p.World.Records))
	}
	fresh := core.FromRecords(kept, &analysis.World{Registry: p.World.Registry, AbuseDB: p.World.AbuseDB})
	if want := render(fresh); narrowed != want {
		t.Fatalf("narrow(p) renders %s, FromRecords over the kept records %s", narrowed, want)
	}
}
