package classify

import "regexp/syntax"

// NecessaryLits derives a disjunctive necessary condition from a regex:
// a set of plain substrings such that every match of expr contains at
// least one of them. A text containing none of the returned literals
// therefore cannot match expr, so the automaton pass can refute the
// regex without running it. Returns nil when no such set can be proven
// (the regex must then always be run).
//
// This is what lets the automaton prefilter regexes that have no
// complete literal form: `\bcurl\b` has none (LiteralPrefix is
// incomplete because of the word boundaries), but every match of it
// contains "curl".
func NecessaryLits(expr string) []string {
	re, err := syntax.Parse(expr, syntax.Perl)
	if err != nil {
		return nil
	}
	return dedupLits(litsOf(re))
}

// litsOf walks the parse tree. Soundness, by structural induction: for
// every node handled below, any string the node matches contains at
// least one literal of the returned set; nil means "no guarantee".
// Nodes that can match the empty string or an unconstrained character
// set (Star, Quest, CharClass, AnyChar, empty-width assertions, ...)
// fall through to nil.
func litsOf(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		// A case-folded literal matches more strings than its spelling;
		// only an exact literal is a containment guarantee.
		if re.Flags&syntax.FoldCase != 0 || len(re.Rune) == 0 {
			return nil
		}
		return []string{string(re.Rune)}
	case syntax.OpCapture:
		return litsOf(re.Sub[0])
	case syntax.OpPlus:
		// The sub-expression matches at least once, so its necessary
		// literals are necessary for the whole.
		return litsOf(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min >= 1 {
			return litsOf(re.Sub[0])
		}
	case syntax.OpConcat:
		// Every part of a concatenation matches, so any one part's set
		// would do; keep the most selective (longest minimum literal,
		// then fewest alternatives).
		var best []string
		for _, sub := range re.Sub {
			best = moreSelective(best, litsOf(sub))
		}
		return best
	case syntax.OpAlternate:
		// A match satisfies one branch; the union of per-branch sets is
		// necessary — but only if every branch contributes one.
		var union []string
		for _, sub := range re.Sub {
			ls := litsOf(sub)
			if ls == nil {
				return nil
			}
			union = append(union, ls...)
		}
		return union
	}
	return nil
}

// moreSelective picks the stronger of two necessary-literal sets: the
// one whose shortest literal is longest, with fewer alternatives as the
// tiebreak. nil loses to anything.
func moreSelective(a, b []string) []string {
	if b == nil {
		return a
	}
	if a == nil {
		return b
	}
	am, bm := minLitLen(a), minLitLen(b)
	if am != bm {
		if bm > am {
			return b
		}
		return a
	}
	if len(b) < len(a) {
		return b
	}
	return a
}

func minLitLen(ls []string) int {
	n := len(ls[0])
	for _, l := range ls[1:] {
		if len(l) < n {
			n = len(l)
		}
	}
	return n
}

func dedupLits(ls []string) []string {
	if len(ls) < 2 {
		return ls
	}
	seen := make(map[string]bool, len(ls))
	out := ls[:0]
	for _, l := range ls {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}
