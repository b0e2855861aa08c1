package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"testing"

	"honeynet"
	"honeynet/internal/analysis"
	"honeynet/internal/botnet"
	"honeynet/internal/core"
	"honeynet/internal/query"
	"honeynet/internal/session"
	"honeynet/internal/simulate"
	"honeynet/internal/store"
)

// TestRunOneCoversEveryFigure runs every selector of core's figure
// table, as text and as CSV, over a small dataset, so a renamed analyzer
// cannot silently break the tool.
func TestRunOneCoversEveryFigure(t *testing.T) {
	p, err := core.Simulate(simulate.Config{
		Scale: 5000,
		Seed:  9,
		End:   botnet.WindowStart.AddDate(0, 14, 0), // spans the variant start
	})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := analysis.ClusterConfig{K: 8, SampleSize: 100, Seed: 9}
	for _, fig := range core.Selectors() {
		for _, csv := range []bool{false, true} {
			var buf bytes.Buffer
			if err := p.Run(&buf, fig, ccfg, csv); err != nil {
				t.Errorf("fig %q csv=%v: %v", fig, csv, err)
			} else if buf.Len() == 0 {
				t.Errorf("fig %q csv=%v: no output", fig, csv)
			}
		}
	}
	if err := p.Run(io.Discard, "nope", ccfg, false); err == nil {
		t.Error("unknown figure must error")
	}
}

// TestStoreAndJSONLByteIdentical is the store PR's acceptance
// criterion: `-fig all` output must be byte-identical whether the
// dataset comes from -in (JSONL) or -store (session store directory),
// for any -workers value. The store persists a dense global append
// sequence per record, so Load reconstructs the exact insertion order
// the figure sample depends on.
func TestStoreAndJSONLByteIdentical(t *testing.T) {
	p, err := core.Simulate(simulate.Config{
		Scale: 5000,
		Seed:  11,
		End:   botnet.WindowStart.AddDate(0, 14, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := p.World.Records

	dir := t.TempDir()
	jsonl := filepath.Join(dir, "dataset.jsonl")
	f, err := os.Create(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	sw := session.NewWriter(f)
	for _, r := range recs {
		if err := sw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	storeDir := filepath.Join(dir, "store")
	st, err := store.Open(storeDir, store.Options{SealBytes: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	ccfg := analysis.ClusterConfig{K: 8, SampleSize: 100, Seed: 11}
	run := func(p *core.Pipeline, workers int) string {
		t.Helper()
		p.World.Workers = workers
		cc := ccfg
		cc.Workers = workers
		var buf bytes.Buffer
		if err := p.RunAll(&buf, cc); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	pj, err := load(jsonl, "", honeynet.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	want := run(pj, 1)
	for _, workers := range []int{1, 3, 8} {
		ps, err := load("", storeDir, honeynet.WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		if got := run(ps, workers); got != want {
			t.Fatalf("-store output differs from -in output at workers=%d (lengths %d vs %d)",
				workers, len(got), len(want))
		}
	}
	// The JSONL path itself is worker-invariant too (regression guard).
	pj2, err := load(jsonl, "", honeynet.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if got := run(pj2, 6); got != want {
		t.Fatal("-in output differs across -workers")
	}

	// -where narrows whatever was loaded; both load paths must match
	// the same predicate applied to the records by hand.
	pre, err := query.CompileFilter("proto = 'ssh'")
	if err != nil {
		t.Fatal(err)
	}
	var kept []*session.Record
	for _, r := range recs {
		if pre(r) {
			kept = append(kept, r)
		}
	}
	if len(kept) == 0 || len(kept) == len(recs) {
		t.Fatalf("the predicate keeps %d of %d sessions: it must split the dataset", len(kept), len(recs))
	}
	want = run(core.FromRecords(kept, &analysis.World{Registry: simulate.Registry(11)}), 1)
	for _, path := range [][2]string{{jsonl, ""}, {"", storeDir}} {
		pw, err := load(path[0], path[1], honeynet.WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		pw = narrow(pw, pre)
		if n := len(pw.World.Records); n != len(kept) {
			t.Fatalf("-where over %q%q holds %d sessions, want %d", path[0], path[1], n, len(kept))
		}
		if got := run(pw, 3); got != want {
			t.Fatalf("-where over %q%q differs from the same filter applied by hand", path[0], path[1])
		}
	}

	// -scale with -where: core.Simulate has read the Killnet feed off the
	// commands view of the whole dataset before narrow builds the new
	// pipeline, and no figure may be served from that view. The predicate splits
	// the SSH command sessions, which 'ssh' alone does not.
	if pre, err = query.CompileFilter("start >= '2022-06-01'"); err != nil {
		t.Fatal(err)
	}
	kept = nil
	for _, r := range recs {
		if pre(r) {
			kept = append(kept, r)
		}
	}
	want = run(core.FromRecords(kept, &analysis.World{Registry: p.World.Registry, AbuseDB: p.World.AbuseDB}), 1)
	if got := run(narrow(p, pre), 3); got != want {
		t.Fatal("-where over a simulated dataset differs from the same filter applied by hand")
	}
}

// TestStoreGzipInputParity: -in reads .gz transparently, so compressing
// the dataset must not change a byte of output.
func TestStoreGzipInputParity(t *testing.T) {
	p, err := core.Simulate(simulate.Config{
		Scale: 20000,
		Seed:  3,
		End:   botnet.WindowStart.AddDate(0, 3, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := p.World.Records

	dir := t.TempDir()
	plain := filepath.Join(dir, "d.jsonl")
	gzPath := filepath.Join(dir, "d.jsonl.gz")
	pf, err := os.Create(plain)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := os.Create(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(gf)
	mw := session.NewWriter(io.MultiWriter(pf, zw))
	for _, r := range recs {
		if err := mw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	ccfg := analysis.ClusterConfig{K: 4, SampleSize: 50, Seed: 3}
	outs := make([]string, 2)
	for i, path := range []string{plain, gzPath} {
		p, err := load(path, "", honeynet.WithSeed(3))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		p.World.Workers = 2
		var buf bytes.Buffer
		if err := p.RunAll(&buf, ccfg); err != nil {
			t.Fatal(err)
		}
		outs[i] = buf.String()
	}
	if outs[0] != outs[1] {
		t.Fatal("gzip-compressed dataset produced different output than plain JSONL")
	}
}

// TestMixedFormatStoreByteIdentical: a store that began with v1 DEFLATE
// rows and v2 LZ rows from internal/store's legacy fixture (nothing
// writes them any more), which the read-write open that seals v3
// columnar stripes on top migrates, must produce -fig all output
// byte-identical to a uniform store over the same records; the fixture
// itself must stay as its README pins it.
func TestMixedFormatStoreByteIdentical(t *testing.T) {
	const fixture = "../../internal/store/testdata/legacy"
	p, err := core.Simulate(simulate.Config{
		Scale: 20000,
		Seed:  7,
		End:   botnet.WindowStart.AddDate(0, 3, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(fixture, "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := session.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}

	// fill appends recs to the store at dir and closes it, sealing them
	// as v3 segments beside whatever the store already holds.
	fill := func(dir string, recs []*session.Record) {
		t.Helper()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := st.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	uniformDir, mixedDir := filepath.Join(dir, "uniform"), filepath.Join(dir, "mixed")
	fill(uniformDir, append(legacy, p.World.Records...))

	legacyFiles := []string{"MANIFEST.json", "seg-000000.hns", "seg-000001.hns"}
	if err := os.Mkdir(mixedDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range legacyFiles {
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mixedDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fill(mixedDir, p.World.Records)

	ccfg := analysis.ClusterConfig{K: 4, SampleSize: 50, Seed: 7, Workers: 2}
	run := func(dir string) string {
		t.Helper()
		p, err := load("", dir, honeynet.WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		p.World.Workers = 2
		var buf bytes.Buffer
		if err := p.RunAll(&buf, ccfg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if run(uniformDir) != run(mixedDir) {
		t.Fatal("-fig all output differs between uniform and mixed-format stores")
	}
	for i, want := range []string{
		"a48106cb5c4f32c6c2315142bc6ef50a855b2787d8783f581c558e94ef2a8f44",
		"09bbc8489b4a745ace2911e036d4eae3eacff2aa56519c3c23091ad05629812e",
	} {
		data, err := os.ReadFile(filepath.Join(fixture, legacyFiles[1+i]))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			t.Fatalf("%s changed: sha256 %x, pinned %s", legacyFiles[1+i], sum, want)
		}
	}
}

// TestOpenHonoursSeed: WithSeed rebuilds the AS registry of a loaded
// dataset by the formula the simulation uses. honeynet.Open and
// hnanalyze's own path then attribute every client and storage IP to
// the AS the simulation that wrote the store did: Figures 7, 8 and 17
// and section 7's AS rows match the simulation's own pipeline byte for
// byte. Seed 0 is the registry core.FromRecords substitutes when given
// none.
func TestOpenHonoursSeed(t *testing.T) {
	const seed = 7
	dir := t.TempDir()
	sim, err := honeynet.Simulate(honeynet.WithScale(20000), honeynet.WithSeed(seed), honeynet.WithStore(dir))
	if err != nil {
		t.Fatal(err)
	}
	recs := sim.World.Records
	ccfg := analysis.ClusterConfig{K: 4, SampleSize: 50, Seed: seed}
	render := func(p *core.Pipeline, figs ...string) string {
		t.Helper()
		var buf bytes.Buffer
		for _, fig := range figs {
			if err := p.Run(&buf, fig, ccfg, false); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	want := render(sim, "7", "8", "17")
	wantAS := analysis.Storage(sim.World)
	for name, open := range map[string]func(...honeynet.Option) (*core.Pipeline, error){
		"honeynet.Open": func(o ...honeynet.Option) (*core.Pipeline, error) { return honeynet.Open(dir, o...) },
		"hnanalyze":     func(o ...honeynet.Option) (*core.Pipeline, error) { return load("", dir, o...) },
	} {
		p, err := open(honeynet.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			a, okA := sim.World.Registry.Lookup(r.ClientIP, r.Start)
			b, okB := p.World.Registry.Lookup(r.ClientIP, r.Start)
			if okA != okB || (okA && (a.ASN != b.ASN || a.Type != b.Type)) {
				t.Fatalf("%s: client %s attributed to %+v, the simulation says %+v", name, r.ClientIP, b, a)
			}
		}
		if got := render(p, "7", "8", "17"); got != want {
			t.Errorf("%s: figures 7/8/17 differ from the simulation's", name)
		}
		if st := analysis.Storage(p.World); st.StorageASes != wantAS.StorageASes || st.DownASes != wantAS.DownASes {
			t.Errorf("%s: %d storage ASes, %d no longer announcing; the simulation has %d and %d",
				name, st.StorageASes, st.DownASes, wantAS.StorageASes, wantAS.DownASes)
		}
		if p, err = open(honeynet.WithSeed(seed + 1)); err != nil {
			t.Fatal(err)
		}
		if got := render(p, "7", "8", "17"); got == want {
			t.Errorf("%s ignores WithSeed: another seed's registry gave the same figures", name)
		}
		if p, err = open(); err != nil {
			t.Fatal(err)
		}
		if render(p, "all") != render(core.FromRecords(recs, nil), "all") {
			t.Errorf("%s at seed 0 differs from core.FromRecords(recs, nil)", name)
		}
	}
}
