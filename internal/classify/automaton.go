package classify

// candidate reports whether the automaton pass left the rule possibly
// matching: every require step with a literal set saw at least one hit.
// (For complete-literal steps the single hit is also the full proof.)
func (p *ruleProg) candidate(hits []bool) bool {
	for _, s := range p.req {
		if len(s.lits) > 0 && !anyHit(hits, s.lits) {
			return false
		}
	}
	return true
}

// verify finishes a candidate probe: only the regexes the automaton
// could not decide actually run. Pure conjunction, so the order the
// steps run in cannot change the result.
func (p *ruleProg) verify(text string, hits []bool) bool {
	for _, s := range p.req {
		if s.re != nil && !s.re.MatchString(text) {
			return false
		}
	}
	for _, s := range p.exc {
		if len(s.lits) > 0 && !anyHit(hits, s.lits) {
			continue // no necessary literal present: cannot exclude
		}
		if s.re.MatchString(text) {
			return false
		}
	}
	return true
}

func anyHit(hits []bool, ids []int32) bool {
	for _, id := range ids {
		if hits[id] {
			return true
		}
	}
	return false
}

// acAutomaton is a dense-transition Aho–Corasick automaton over bytes.
// Node 0 is the root; next[s][b] is the goto-with-failure transition
// (precomputed, so the scan is one table load per input byte), and
// out[s] lists the pattern IDs ending at s (own plus inherited via the
// suffix links).
type acAutomaton struct {
	next [][256]int32
	out  [][]int32
}

// scan marks hits[id] = true for every pattern occurring in text.
func (a *acAutomaton) scan(text string, hits []bool) {
	s := int32(0)
	for i := 0; i < len(text); i++ {
		s = a.next[s][text[i]]
		for _, id := range a.out[s] {
			hits[id] = true
		}
	}
}

// acBuilder accumulates patterns into a trie, then build() closes it
// into the dense automaton (BFS failure links, merged outputs,
// goto-with-failure transitions).
type acBuilder struct {
	next [][256]int32
	out  [][]int32
}

func newACBuilder() *acBuilder {
	b := &acBuilder{}
	b.grow()
	return b
}

func (b *acBuilder) grow() int32 {
	b.next = append(b.next, [256]int32{})
	b.out = append(b.out, nil)
	return int32(len(b.next) - 1)
}

func (b *acBuilder) add(pat string, id int32) {
	s := int32(0)
	for i := 0; i < len(pat); i++ {
		c := pat[i]
		if b.next[s][c] == 0 {
			b.next[s][c] = b.grow()
		}
		s = b.next[s][c]
	}
	b.out[s] = append(b.out[s], id)
}

func (b *acBuilder) build() *acAutomaton {
	// BFS from the root: fail[child] = next[fail[parent]][c] (already a
	// closed transition for shallower nodes), outputs inherit from the
	// failure target, and zero transitions are redirected through the
	// failure state so scan never follows links at match time.
	fail := make([]int32, len(b.next))
	queue := make([]int32, 0, len(b.next))
	for c := 0; c < 256; c++ {
		if s := b.next[0][c]; s != 0 {
			queue = append(queue, s)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		f := fail[s]
		b.out[s] = append(b.out[s], b.out[f]...)
		for c := 0; c < 256; c++ {
			t := b.next[s][c]
			if t != 0 {
				fail[t] = b.next[f][c]
				queue = append(queue, t)
			} else {
				b.next[s][c] = b.next[f][c]
			}
		}
	}
	return &acAutomaton{next: b.next, out: b.out}
}
