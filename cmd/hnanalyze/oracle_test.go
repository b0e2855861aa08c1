package main

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"honeynet"
	"honeynet/internal/core"
	"honeynet/internal/query"
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
		all   = "d1528500c1bcc20b5e247ade1c996310e2c886e00270dc27efe2f257dad23fa9"
		where = "878146a843b08cc14270e6442b89eeb3482a155d2ca1a3f99bfc32008ad1c8d9"
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
