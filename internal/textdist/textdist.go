// Package textdist implements the session-similarity machinery of
// section 6: command tokenization and the token-level Damerau–Levenshtein
// distance (DLD), where each token — not each character — is an edit
// unit. Token-level DLD is robust to the obfuscation bots apply (rotating
// IPs, random file names, changing folders) because such churn touches
// isolated tokens without altering the behavioral pattern.
//
// The DP needs three rolling rows of ints. The package-level functions
// allocate them per call; the distance-matrix hot path computes millions
// of distances, so a Scratch carries reusable rows (one Scratch per
// worker) and brings per-pair allocations to zero.
//
// Pairwise (every pair of one text set) and Blocks (the rows×cols block
// between every two groups of texts) fill whole distance sets: they
// intern the tokens, keep the per-worker kernel state, and are the only
// code that decides which pairs run packed and which one at a time.
package textdist

import (
	"math/bits"
	"strings"
)

// Tokenize splits session command text into tokens. Separators are
// whitespace and the shell operators `;`, `|`, `&`, matching the paper's
// example: "mkdir /tmp;cd /tmp" -> ["mkdir", "/tmp", "cd", "/tmp"].
func Tokenize(text string) []string {
	return strings.FieldsFunc(text, func(r rune) bool {
		switch r {
		case ' ', '\t', '\n', '\r', ';', '|', '&':
			return true
		}
		return false
	})
}

// KernelStats counts the work the bounded kernel did and, crucially,
// the work it avoided — the observability hook behind the -timings span
// tags.
type KernelStats struct {
	// Pairs is the number of normalized-distance computations.
	Pairs int64
	// Trivial counts pairs fully resolved without any DP: equal after
	// affix stripping, one side empty after stripping, or (interned
	// path) token-disjoint, where the histogram bound pins the distance.
	Trivial int64
	// BandPasses counts bit-parallel scans (one per non-trivial pair).
	BandPasses int64
	// CellsDP measures the DP work actually done: the bit-parallel
	// kernel computes a whole 64-cell column per machine word step and
	// counts one per step, so the CellsFull - CellsDP gap is the work the
	// kernel structure avoided.
	CellsDP int64
	// CellsFull is the number of cells a full unbounded DP would have
	// computed for the same pairs (pre-stripping lengths). The
	// short-circuited work is CellsFull - CellsDP.
	CellsFull int64
}

// Add accumulates other into s (for merging per-worker stats).
func (s *KernelStats) Add(other KernelStats) {
	s.Pairs += other.Pairs
	s.Trivial += other.Trivial
	s.BandPasses += other.BandPasses
	s.CellsDP += other.CellsDP
	s.CellsFull += other.CellsFull
}

// Scratch holds the DP row buffers for one worker. The zero value is
// ready to use; rows grow on demand and are reused across calls. Not
// safe for concurrent use — give each goroutine its own Scratch.
type Scratch struct {
	prev2, prev, cur []int
	// peq* form the per-pair match-vector table of the bit-parallel
	// kernel: a small open-addressing map from token ID to the bitmask
	// of pattern positions holding that token. Keys are stored as id+1
	// so the zero value means "empty"; peqUsed records occupied slots
	// for an O(pattern) clear after each pair.
	peqKeys [peqSize]int32
	peqVals [peqSize]uint64
	peqUsed [bitvecMax]uint8
	peqN    int
	// counts is the token-ID histogram behind the multiset lower bound
	// of the long-pair path; grown to the largest ID seen and zeroed
	// after each pair via the same ID list.
	counts []int32
	// stats accumulates bounded-kernel work counters.
	stats KernelStats
}

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// Stats returns the accumulated bounded-kernel counters.
func (s *Scratch) Stats() KernelStats { return s.stats }

// ResetStats zeroes the counters.
func (s *Scratch) ResetStats() { s.stats = KernelStats{} }

// rows returns the three DP rows sized for a second sequence of length
// lb, growing the backing arrays when needed.
func (s *Scratch) rows(lb int) (prev2, prev, cur []int) {
	if cap(s.prev) <= lb {
		s.prev2 = make([]int, lb+1)
		s.prev = make([]int, lb+1)
		s.cur = make([]int, lb+1)
	}
	return s.prev2[:lb+1], s.prev[:lb+1], s.cur[:lb+1]
}

// damerau computes the edit-unit DLD over any comparable element type.
// Tokens run it over []string; the interned hot path runs it over
// []int32, where the per-cell equality check is a single integer
// compare instead of a string compare.
func damerau[T comparable](s *Scratch, a, b []T) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Three rolling rows: i-2, i-1, i.
	prev2, prev, cur := s.rows(lb)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1 // deletion
			if v := cur[j-1] + 1; v < m {
				m = v // insertion
			}
			if v := prev[j-1] + cost; v < m {
				m = v // substitution
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if v := prev2[j-2] + 1; v < m {
					m = v // transposition
				}
			}
			cur[j] = m
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

// damerauBanded is damerau with early abandoning: it returns a value
// > bound as soon as the distance provably exceeds bound.
func damerauBanded[T comparable](s *Scratch, a, b []T, bound int) int {
	la, lb := len(a), len(b)
	diff := la - lb
	if diff < 0 {
		diff = -diff
	}
	if diff > bound {
		return bound + 1
	}
	if la == 0 || lb == 0 {
		return la + lb
	}
	prev2, prev, cur := s.rows(lb)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if v := cur[j-1] + 1; v < m {
				m = v
			}
			if v := prev[j-1] + cost; v < m {
				m = v
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if v := prev2[j-2] + 1; v < m {
					m = v
				}
			}
			cur[j] = m
			if m < rowMin {
				rowMin = m
			}
		}
		if rowMin > bound {
			return bound + 1
		}
		prev2, prev, cur = prev, cur, prev2
	}
	d := prev[lb]
	if d > bound {
		return bound + 1
	}
	return d
}

const (
	// bitvecMax is the longest pattern the single-word bit-parallel
	// kernel handles: one pattern position per bit of a uint64.
	bitvecMax = 64
	// peqSize is the open-addressing table size for the match vectors:
	// a power of two at load factor <= 1/2 for <= bitvecMax keys.
	peqSize = 128
)

// damerauBitVector computes the exact OSA Damerau distance by Hyyrö's
// bit-parallel algorithm (Myers' Levenshtein vectors plus a
// transposition term). pattern must be non-empty and at most bitvecMax
// tokens; text is unbounded. Each text token costs a handful of word
// operations instead of a len(pattern)-cell DP row, so a pair costs
// O(len(text)) regardless of pattern length — the decisive win on the
// skewed-length pairs that dominate real command corpora.
//
// Vector semantics (bit k <-> pattern position k+1, column j = text
// position): D0 marks diagonal zeros D[i,j] == D[i-1,j-1]; VP/VN the
// +1/-1 vertical deltas; HP/HN the horizontal ones. The restricted
// transposition D[i,j] = D[i-2,j-2]+1 surfaces as an extra diagonal
// zero exactly when pattern[i-1] == text[j], pattern[i] == text[j-1],
// and (i-1,j-1) was not itself a diagonal zero — the TR term below,
// built from the previous column's D0 and match vector.
func (s *Scratch) damerauBitVector(pattern, text []int32) int {
	m := len(pattern)
	for i, id := range pattern {
		h := (uint32(id) * 2654435761) & (peqSize - 1)
		for {
			k := s.peqKeys[h]
			if k == 0 {
				s.peqKeys[h] = id + 1
				s.peqVals[h] = 1 << uint(i)
				s.peqUsed[s.peqN] = uint8(h)
				s.peqN++
				break
			}
			if k == id+1 {
				s.peqVals[h] |= 1 << uint(i)
				break
			}
			h = (h + 1) & (peqSize - 1)
		}
	}
	vp := ^uint64(0)
	if m < 64 {
		vp = (uint64(1) << uint(m)) - 1
	}
	var vn, d0prev, pmprev uint64
	mask := uint64(1) << uint(m-1)
	score := m
	for _, id := range text {
		h := (uint32(id) * 2654435761) & (peqSize - 1)
		var pm uint64
		for {
			k := s.peqKeys[h]
			if k == id+1 {
				pm = s.peqVals[h]
				break
			}
			if k == 0 {
				break
			}
			h = (h + 1) & (peqSize - 1)
		}
		tr := ((^d0prev & pm) << 1) & pmprev
		d0 := tr | (((pm & vp) + vp) ^ vp) | pm | vn
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		if hp&mask != 0 {
			score++
		} else if hn&mask != 0 {
			score--
		}
		x := (hp << 1) | 1
		vp = (hn << 1) | ^(d0 | x)
		vn = d0 & x
		d0prev, pmprev = d0, pm
	}
	for i := 0; i < s.peqN; i++ {
		s.peqKeys[s.peqUsed[i]] = 0
	}
	s.peqN = 0
	return score
}

// damerauBitVectorBlocked extends damerauBitVector to patterns longer
// than one machine word: the pattern is split into ceil(m/64)-word
// blocks and each text token updates the blocks bottom-up, chaining the
// adder carry, the horizontal-delta shift bits, and the transposition
// term's shift bit across block boundaries. A pair costs
// O(len(text) * ceil(len(pattern)/64)) word operations — for the rare
// both-sides-long pairs this replaces millions of DP cells with
// tens of thousands of word steps. Long pairs are a sliver of any
// matrix fill, so this path allocates its per-pair state instead of
// threading more buffers through Scratch.
func damerauBitVectorBlocked(pattern, text []int32) int {
	m := len(pattern)
	nb := (m + 63) / 64
	peq := make(map[int32][]uint64, m)
	for i, id := range pattern {
		v := peq[id]
		if v == nil {
			v = make([]uint64, nb)
			peq[id] = v
		}
		v[i/64] |= 1 << uint(i%64)
	}
	vp := make([]uint64, nb)
	vn := make([]uint64, nb)
	d0prev := make([]uint64, nb)
	pmprev := make([]uint64, nb)
	zero := make([]uint64, nb)
	for k := range vp {
		vp[k] = ^uint64(0)
	}
	if r := m % 64; r != 0 {
		vp[nb-1] = (uint64(1) << uint(r)) - 1
	}
	mask := uint64(1) << uint((m-1)%64)
	score := m
	for _, id := range text {
		pmc := peq[id]
		if pmc == nil {
			pmc = zero
		}
		var addC, yC uint64
		hpC, hnC := uint64(1), uint64(0)
		for k := 0; k < nb; k++ {
			pm := pmc[k]
			y := ^d0prev[k] & pm
			tr := ((y << 1) | yC) & pmprev[k]
			sum, carry := bits.Add64(pm&vp[k], vp[k], addC)
			d0 := tr | (sum ^ vp[k]) | pm | vn[k]
			hp := vn[k] | ^(d0 | vp[k])
			hn := d0 & vp[k]
			if k == nb-1 {
				if hp&mask != 0 {
					score++
				} else if hn&mask != 0 {
					score--
				}
			}
			x := (hp << 1) | hpC
			nvp := (hn << 1) | hnC | ^(d0 | x)
			vn[k] = d0 & x
			vp[k] = nvp
			yC, hpC, hnC, addC = y>>63, hp>>63, hn>>63, carry
			d0prev[k], pmprev[k] = d0, pm
		}
	}
	return score
}

// packer runs damerauBitVector over many short patterns at once. Up to
// bitvecMax tokens of patterns are laid side by side in one word, one
// segment per pattern, so a text costs one pass for the whole pack
// instead of one per pattern. The match table is dense, indexed by
// token ID, so a text token costs one array load instead of a hash
// probe. Not safe for concurrent use — give each goroutine its own.
type packer struct {
	// peq maps a token ID to its positions in every segment of the
	// loaded pack; it is zero for every other ID.
	peq []uint64
	// seqs[members[k]] is segment k, and masks[k] its bits.
	seqs    [][]int32
	members []int
	masks   []uint64
	// bottom and top hold each segment's first and last bit, used every
	// bit some segment owns.
	bottom, top, used uint64
	stats             KernelStats
}

// newPacker returns a packer for token IDs below vocab (Interner.Len).
func newPacker(vocab int) *packer { return &packer{peq: make([]uint64, vocab)} }

// splitPacks splits the indices of seqs into packs for a packer:
// sequences of 1..bitvecMax tokens are taken greedily in index order, so
// each pack is an ascending run of them holding at most bitvecMax
// tokens. Empty and longer sequences cannot be packed; they are returned
// in long, ascending.
func splitPacks(seqs [][]int32) (packs [][]int, long []int) {
	var cur []int
	size := 0
	for i, s := range seqs {
		if len(s) == 0 || len(s) > bitvecMax {
			long = append(long, i)
			continue
		}
		if size+len(s) > bitvecMax {
			packs = append(packs, cur)
			cur, size = nil, 0
		}
		cur = append(cur, i)
		size += len(s)
	}
	if len(cur) > 0 {
		packs = append(packs, cur)
	}
	return packs, long
}

// load makes seqs[members] the pack, clearing the previous one from the
// match table. Each member must hold 1..bitvecMax tokens and all of them
// at most bitvecMax together, as splitPacks guarantees.
func (p *packer) load(seqs [][]int32, members []int) {
	for _, i := range p.members {
		for _, id := range p.seqs[i] {
			p.peq[id] = 0
		}
	}
	p.seqs, p.members, p.masks = seqs, members, p.masks[:0]
	p.bottom, p.top, p.used = 0, 0, 0
	off := 0
	for _, i := range members {
		m := len(seqs[i])
		if m == 0 || off+m > bitvecMax {
			panic("textdist: pack member out of range")
		}
		for q, id := range seqs[i] {
			p.peq[id] |= 1 << uint(off+q)
		}
		mask := ^uint64(0) >> uint(64-m) << uint(off)
		p.masks = append(p.masks, mask)
		p.bottom |= 1 << uint(off)
		p.top |= 1 << uint(off+m-1)
		p.used |= mask
		off += m
	}
}

// normalized sets out[k], for every member k >= from, to the normalized
// distance between text and that member: bit for bit what
// Scratch.NormalizedIDs returns for the pair. The pass costs the same
// for any from; from only limits what is written and counted.
//
// The recurrence is damerauBitVector's, with three changes that keep
// the segments apart. The adder does not carry out of a segment's top
// bit. The <<1 of the horizontal deltas and of the transposition term
// drops what crosses into a segment's bottom, and every bottom gets its
// own row 0's +1. And no score is kept per step: D[0][len(text)] is
// len(text), so a segment's distance is len(text) plus the vertical
// deltas of its last column. A token no segment holds, once no +1
// vertical delta is left, leaves the state as it is and is skipped.
func (p *packer) normalized(text []int32, from int, out []float64) {
	B, T, S := p.bottom, p.top, p.used
	vp := S
	var vn, d0prev, pmprev uint64
	steps := 0
	for _, id := range text {
		pm := p.peq[id]
		if pm == 0 && vp&S == 0 {
			pmprev = 0
			continue
		}
		steps++
		tr := (((^d0prev & pm) << 1) &^ B) & pmprev
		a := pm & vp
		sum := ((a &^ T) + (vp &^ T)) ^ ((a ^ vp) & T)
		d0 := tr | (sum ^ vp) | pm | vn
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		x := (hp << 1) | B
		vp = ((hn << 1) &^ B) | ^(d0 | x)
		vn = d0 & x
		d0prev, pmprev = d0, pm
	}
	p.stats.BandPasses++
	p.stats.CellsDP += int64(steps)
	lt := len(text)
	for k := from; k < len(p.members); k++ {
		lm := len(p.seqs[p.members[k]])
		d := lt + bits.OnesCount64(vp&p.masks[k]) - bits.OnesCount64(vn&p.masks[k])
		out[k] = float64(d) / float64(max(lt, lm))
		p.stats.Pairs++
		p.stats.CellsFull += int64(lt) * int64(lm)
	}
}

// histLowerBound returns the multiset lower bound on the DLD of the
// stripped pair (shorter, longer): len(longer) minus the multiset
// intersection size. Every cost-0 match and cost-1 transposition in an
// alignment consumes equal tokens from both sides, so at most
// |intersection| tokens of the longer side escape a paid edit — the
// distance is at least len(longer) - |intersection|. O(la+lb) via an
// ID-indexed histogram.
func (s *Scratch) histLowerBound(shorter, longer []int32) int {
	for _, id := range shorter {
		if int(id) >= len(s.counts) {
			s.counts = append(s.counts, make([]int32, int(id)+1-len(s.counts))...)
		}
		s.counts[id]++
	}
	c := 0
	for _, id := range longer {
		if int(id) < len(s.counts) && s.counts[id] > 0 {
			c++
			s.counts[id]--
		}
	}
	for _, id := range shorter {
		s.counts[id] = 0
	}
	return len(longer) - c
}

// damerauBoundedIDs is the exact kernel of the interned distance-matrix
// hot path. After stripping the common affixes it dispatches:
//
//   - shorter side <= bitvecMax tokens (virtually every pair of real,
//     deduplicated command texts): the single-word bit-parallel kernel,
//     O(longer) word operations.
//   - both sides longer: the multiset lower bound first — if it reaches
//     len(longer), the distance IS len(longer) (substitute-and-delete
//     achieves it, the bound forbids less) with no DP at all —
//     otherwise the blocked bit-parallel kernel.
//
// Every branch returns the exact OSA distance; only the work differs.
//
// Affix stripping preserves the OSA distance: a cost-1 transposition
// spanning the strip boundary needs a[p-1]==b[p] and a[p]==b[p-1] with
// a[p-1]==b[p-1] (the common affix), which forces all four tokens equal
// — and then plain matches are at least as good.
func (s *Scratch) damerauBoundedIDs(a, b []int32) int {
	s.stats.Pairs++
	s.stats.CellsFull += int64(len(a)) * int64(len(b))
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	la, lb := len(a), len(b)
	if la == 0 {
		s.stats.Trivial++
		return lb
	}
	if la <= bitvecMax {
		s.stats.BandPasses++
		s.stats.CellsDP += int64(lb)
		return s.damerauBitVector(a, b)
	}
	if low := s.histLowerBound(a, b); low == lb {
		s.stats.Trivial++
		return lb
	}
	s.stats.BandPasses++
	s.stats.CellsDP += int64((la+63)/64) * int64(lb)
	return damerauBitVectorBlocked(a, b)
}

// normalizedFull is the unbounded reference: the full-DP distance
// scaled into [0,1] by the longer sequence length. Kept for the
// kernel-equivalence tests and the bounded-vs-unbounded matrix
// benchmark.
func normalizedFull[T comparable](s *Scratch, a, b []T) float64 {
	la, lb := len(a), len(b)
	n := la
	if lb > n {
		n = lb
	}
	if n == 0 {
		return 0
	}
	return float64(damerau(s, a, b)) / float64(n)
}

// Damerau computes the token-level DLD using the scratch rows.
func (s *Scratch) Damerau(a, b []string) int { return damerau(s, a, b) }

// DamerauBanded computes the DLD but abandons early (returning a value
// > bound) once the distance provably exceeds bound.
func (s *Scratch) DamerauBanded(a, b []string, bound int) int {
	return damerauBanded(s, a, b, bound)
}

// Normalized returns the DLD scaled into [0,1] by the longer sequence
// length: the string-token spelling of the full-DP reference.
func (s *Scratch) Normalized(a, b []string) float64 { return normalizedFull(s, a, b) }

// DamerauIDs is Damerau over interned token IDs.
func (s *Scratch) DamerauIDs(a, b []int32) int { return damerau(s, a, b) }

// NormalizedIDs is the distance-matrix hot path: the normalized DLD
// over interned token IDs, from the exact hybrid kernel (see
// damerauBoundedIDs). Because an Interner assigns equal tokens equal IDs
// (and distinct tokens distinct IDs), it returns exactly Normalized of
// the original sequences.
func (s *Scratch) NormalizedIDs(a, b []int32) float64 {
	la, lb := len(a), len(b)
	n := la
	if lb > n {
		n = lb
	}
	if n == 0 {
		return 0
	}
	return float64(s.damerauBoundedIDs(a, b)) / float64(n)
}

// NormalizedIDsFull is NormalizedIDs computed by the unbounded full DP
// — the reference the bounded kernel must match exactly. Kept for the
// equivalence tests and the bounded-vs-unbounded matrix benchmark.
func (s *Scratch) NormalizedIDsFull(a, b []int32) float64 { return normalizedFull(s, a, b) }

// Interner maps distinct tokens to dense int32 IDs so the DP can
// compare integers instead of strings. Equality is preserved exactly:
// two tokens get the same ID iff they are the same string, so any
// distance over ID sequences equals the distance over the token
// sequences. Not safe for concurrent use — intern serially before
// fanning out.
type Interner struct {
	ids map[string]int32
}

// NewInterner returns an empty Interner.
func NewInterner() *Interner { return &Interner{ids: map[string]int32{}} }

// Intern converts a token sequence to its ID sequence, assigning fresh
// IDs to unseen tokens.
func (in *Interner) Intern(tokens []string) []int32 {
	out := make([]int32, len(tokens))
	for i, t := range tokens {
		id, ok := in.ids[t]
		if !ok {
			id = int32(len(in.ids))
			in.ids[t] = id
		}
		out[i] = id
	}
	return out
}

// Len returns the number of distinct tokens interned: every ID is below
// it.
func (in *Interner) Len() int { return len(in.ids) }

// CharDamerau computes character-level DLD between raw strings — the
// baseline the paper argues against; kept for the token-vs-char
// ablation. The DP runs directly over the strings' bytes: no per-call
// string or slice conversion allocations.
func (s *Scratch) CharDamerau(a, b string) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev2, prev, cur := s.rows(lb)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if v := cur[j-1] + 1; v < m {
				m = v
			}
			if v := prev[j-1] + cost; v < m {
				m = v
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if v := prev2[j-2] + 1; v < m {
					m = v
				}
			}
			cur[j] = m
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

// Damerau computes the Damerau–Levenshtein distance between two token
// sequences: the minimum number of token insertions, deletions,
// substitutions, and adjacent transpositions turning a into b.
//
// This is the "optimal string alignment" variant (each substring edited
// at most once), the standard choice for clustering distance matrices.
func Damerau(a, b []string) int {
	var s Scratch
	return s.Damerau(a, b)
}

// Normalized returns the DLD between the token sequences scaled into
// [0,1] by the longer sequence length. Two empty sequences have
// distance 0.
func Normalized(a, b []string) float64 {
	var s Scratch
	return s.Normalized(a, b)
}

// DamerauBanded computes the DLD but abandons early (returning a value
// > bound) once the distance provably exceeds bound. Clustering uses it
// to skip full matrix computation for clearly-dissimilar pairs — one of
// the ablations in DESIGN.md.
func DamerauBanded(a, b []string, bound int) int {
	var s Scratch
	return s.DamerauBanded(a, b, bound)
}

// CharDamerau computes character-level DLD between raw strings.
func CharDamerau(a, b string) int {
	var s Scratch
	return s.CharDamerau(a, b)
}
