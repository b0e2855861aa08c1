package analysis

import (
	"math"
	"math/rand"
	"testing"

	"honeynet/internal/textdist"
)

// TestFillDLDMatrixEqualsPerPair: the packed fill equals a per-pair
// NormalizedIDs fill bit for bit, with empty texts, texts past one word
// and duplicates in the set, at any worker count.
func TestFillDLDMatrixEqualsPerPair(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	vocab := []string{"cd", "/tmp", "wget", "chmod", "777", "sh", "rm", "-rf", "x", "y"}
	var tokens [][]string
	for i := 0; i < 160; i++ {
		n := r.Intn(20)
		switch i % 10 {
		case 3:
			n = 0
		case 7:
			n = 65 + r.Intn(300)
		}
		s := make([]string, n)
		for k := range s {
			s[k] = vocab[r.Intn(len(vocab))]
		}
		tokens = append(tokens, s)
		if i%13 == 0 {
			tokens = append(tokens, s)
		}
	}
	in := textdist.NewInterner()
	ids := make([][]int32, len(tokens))
	for i, tk := range tokens {
		ids[i] = in.Intern(tk)
	}
	s := textdist.NewScratch()
	n := len(ids)
	for _, workers := range []int{1, 2, 8} {
		m, st := fillDLDMatrix(tokens, workers)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if got, want := m.At(i, j), s.NormalizedIDs(ids[i], ids[j]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("workers=%d: cell (%d,%d) = %v, per-pair %v", workers, i, j, got, want)
				}
			}
		}
		// Two empty texts are the only pairs NormalizedIDs does not count.
		empties := 0
		for _, x := range ids {
			if len(x) == 0 {
				empties++
			}
		}
		if want := int64(n*(n-1)/2 - empties*(empties-1)/2); st.Pairs != want {
			t.Errorf("workers=%d: pairs = %d, want %d", workers, st.Pairs, want)
		}
	}
}
