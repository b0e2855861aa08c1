package textdist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fillInputs are the text sets the drivers are held to: the pack
// boundaries (0, 1, 63, 64, 65 and ~200 tokens over three tokens, so
// matches and transpositions are dense, cycled so every third of the
// set holds each length), and a clustering-like sample with empty
// texts, texts past one word and duplicates.
func fillInputs() map[string][][]string {
	r := rand.New(rand.NewSource(17))
	vocab := []string{"cd", "/tmp", "wget", "chmod", "777", "sh", "rm", "-rf", "x", "y"}
	text := func(n, v int) []string {
		s := make([]string, n)
		for k := range s {
			s[k] = vocab[r.Intn(v)]
		}
		return s
	}
	var bounds [][]string
	for i := 0; i < 4; i++ {
		for _, n := range []int{0, 1, 63, 64, 65, 190 + r.Intn(20)} {
			bounds = append(bounds, text(n, 3))
		}
	}
	var sample [][]string
	for i := 0; i < 160; i++ {
		n := r.Intn(20)
		switch i % 10 {
		case 3:
			n = 0
		case 7:
			n = 65 + r.Intn(300)
		}
		s := text(n, len(vocab))
		sample = append(sample, s)
		if i%13 == 0 {
			sample = append(sample, s)
		}
	}
	return map[string][][]string{"boundaries": bounds, "sample": sample}
}

// perPair is the reference: NormalizedIDsFull over one interning of
// every text.
func perPair(texts [][]string) func(i, j int) float64 {
	in := NewInterner()
	ids := make([][]int32, len(texts))
	for i, t := range texts {
		ids[i] = in.Intern(t)
	}
	s := NewScratch()
	return func(i, j int) float64 { return s.NormalizedIDsFull(ids[i], ids[j]) }
}

func empties(texts [][]string) int {
	n := 0
	for _, t := range texts {
		if len(t) == 0 {
			n++
		}
	}
	return n
}

// TestPairwiseAndBlocksEqualPerPair: both fill shapes set every cell
// exactly once, to the full-DP distance of its pair bit for bit, at any
// worker count; the pair counter skips only empty-empty pairs.
func TestPairwiseAndBlocksEqualPerPair(t *testing.T) {
	for name, texts := range fillInputs() {
		n := len(texts)
		want := make([]float64, n*n)
		ref := perPair(texts)
		for i := range texts {
			for j := range texts {
				want[i*n+j] = ref(i, j)
			}
		}
		for _, workers := range []int{1, 2, 3} {
			check := func(shape string, nr, nc int, got []float64, seen []int, cell func(r, c int) int) {
				t.Helper()
				for r := 0; r < nr; r++ {
					for c := 0; c < nc; c++ {
						x := r*nc + c
						if seen[x] != 1 {
							t.Fatalf("%s %s workers=%d: cell (%d,%d) set %d times", name, shape, workers, r, c, seen[x])
						}
						if w := want[cell(r, c)]; math.Float64bits(got[x]) != math.Float64bits(w) {
							t.Fatalf("%s %s workers=%d: cell (%d,%d) = %v, per pair %v", name, shape, workers, r, c, got[x], w)
						}
					}
				}
			}

			got, seen := make([]float64, n*n), make([]int, n*n)
			st := Pairwise(texts, workers, func(i, j int, d float64) {
				if i == j {
					panic(fmt.Sprintf("Pairwise set (%d,%d)", i, j))
				}
				got[i*n+j], got[j*n+i] = d, d
				seen[i*n+j]++
				seen[j*n+i]++
			})
			for i := 0; i < n; i++ {
				seen[i*n+i] = 1
			}
			check("pairwise", n, n, got, seen, func(r, c int) int { return r*n + c })
			e := empties(texts)
			if w := int64(n*(n-1)/2 - e*(e-1)/2); st.Pairs != w {
				t.Errorf("%s pairwise workers=%d: pairs = %d, want %d", name, workers, st.Pairs, w)
			}

			// Blocks over index ranges of texts: one rows×cols block, the
			// same transposed, and several groups with an empty one.
			for _, ranges := range [][][2]int{
				{{0, n / 3}, {0, n}},
				{{0, n}, {0, n / 3}},
				{{0, 5}, {5, 5}, {5, n / 2}, {n / 2, n - 1}, {n - 1, n}},
			} {
				var groups [][][]string
				for _, rg := range ranges {
					groups = append(groups, texts[rg[0]:rg[1]])
				}
				shape := fmt.Sprintf("blocks%v", ranges)
				got := make([][]float64, len(groups)*len(groups))
				seen := make([][]int, len(got))
				for g := range groups {
					for h := g + 1; h < len(groups); h++ {
						got[g*len(groups)+h] = make([]float64, len(groups[g])*len(groups[h]))
						seen[g*len(groups)+h] = make([]int, len(groups[g])*len(groups[h]))
					}
				}
				st := Blocks(groups, workers, func(g, h, r, c int, d float64) {
					x := r*len(groups[h]) + c
					got[g*len(groups)+h][x] = d
					seen[g*len(groups)+h][x]++
				})
				var pairs int64
				for g := range groups {
					for h := g + 1; h < len(groups); h++ {
						ag, ah := ranges[g][0], ranges[h][0]
						check(shape, len(groups[g]), len(groups[h]), got[g*len(groups)+h], seen[g*len(groups)+h],
							func(r, c int) int { return (ag+r)*n + ah + c })
						pairs += int64(len(groups[g])*len(groups[h]) - empties(groups[g])*empties(groups[h]))
					}
				}
				if st.Pairs != pairs {
					t.Errorf("%s %s workers=%d: pairs = %d, want %d", name, shape, workers, st.Pairs, pairs)
				}
			}
		}
	}
	Pairwise(nil, 2, func(int, int, float64) { t.Fatal("Pairwise set a cell of no texts") })
	Blocks([][][]string{nil, {{"a"}}}, 2, func(int, int, int, int, float64) { t.Fatal("Blocks set a cell of no rows") })
	Blocks([][][]string{{{"a"}}}, 2, func(int, int, int, int, float64) { t.Fatal("Blocks set a cell of one group") })
}
