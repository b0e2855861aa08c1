package textdist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fillInputs are the text sets Pairwise is held to: the pack
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
	s := new(Scratch)
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

// TestPairwiseEqualsPerPair: Pairwise sets every cell exactly once, to
// the full-DP distance of its pair bit for bit, at any worker count; the
// pair counter skips only empty-empty pairs.
func TestPairwiseEqualsPerPair(t *testing.T) {
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
				for j := 0; j < n; j++ {
					if x := i*n + j; i != j && seen[x] != 1 {
						t.Fatalf("%s workers=%d: cell (%d,%d) set %d times", name, workers, i, j, seen[x])
					} else if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
						t.Fatalf("%s workers=%d: cell (%d,%d) = %v, per pair %v", name, workers, i, j, got[x], want[x])
					}
				}
			}
			e := empties(texts)
			if w := int64(n*(n-1)/2 - e*(e-1)/2); st.Pairs != w {
				t.Errorf("%s workers=%d: pairs = %d, want %d", name, workers, st.Pairs, w)
			}
		}
	}
	Pairwise(nil, 2, func(int, int, float64) { t.Fatal("Pairwise set a cell of no texts") })
}
