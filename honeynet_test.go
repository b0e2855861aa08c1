package honeynet

import (
	"bytes"
	"testing"

	"honeynet/internal/analysis"
	"honeynet/internal/session"
)

// TestFacadeSimulateLoadRoundTrip drives the public API end to end:
// generate a dataset, serialize it as JSONL (the cmd/hnsim format),
// reload it through Load, and check the analyses agree.
func TestFacadeSimulateLoadRoundTrip(t *testing.T) {
	p, err := Simulate(WithScale(50000), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	orig := analysis.Stats(p.World)
	if orig.Total == 0 {
		t.Fatal("empty simulation")
	}

	var buf bytes.Buffer
	w := session.NewWriter(&buf)
	for _, r := range p.World.Records {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	p2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := analysis.Stats(p2.World)
	if got.Total != orig.Total || got.CommandExec != orig.CommandExec ||
		got.Scouting != orig.Scouting || got.UniqueClientIPs != orig.UniqueClientIPs {
		t.Errorf("stats diverged across JSONL round trip:\norig %+v\ngot  %+v", orig, got)
	}
	// Classification works over reloaded records too.
	t1 := analysis.Table1(p2.World)
	if t1.Total != got.CommandExec {
		t.Errorf("classified %d of %d command sessions", t1.Total, got.CommandExec)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json at all\n")); err == nil {
		t.Error("garbage must fail")
	}
}

// TestFacadeQuery runs hnquery-DSL statements through the public
// Query entry point over a store written by Simulate(WithStore).
func TestFacadeQuery(t *testing.T) {
	dir := t.TempDir()
	p, err := Simulate(WithScale(50000), WithSeed(3), WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for _, r := range p.World.Records {
		want[r.Month().Format("2006-01")]++
	}

	res, err := Query(dir, `EXPLAIN SELECT month, count(*) GROUP BY month ORDER BY month`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d groups, want %d", len(res.Rows), len(want))
	}
	for _, row := range res.Rows {
		if row[1].Int != want[row[0].String()] {
			t.Errorf("month %s: count %d, want %d", row[0].String(), row[1].Int, want[row[0].String()])
		}
	}
	// A kind/protocol/month-only aggregate over a sealed store answers
	// from metadata: the EXPLAIN plan must say so.
	if res.Stats.Mode != "metadata" || res.Stats.BlocksRead != 0 {
		t.Errorf("expected metadata-only plan, got %+v", res.Stats)
	}
	if len(res.Explain) == 0 {
		t.Error("EXPLAIN returned no plan")
	}

	if _, err := Query(dir, `SELECT nosuch`); err == nil {
		t.Error("bad statement must fail")
	}
}
