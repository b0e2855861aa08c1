package textdist

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkPack loads every pattern as one pack and compares each member's
// distance to each text with the full-DP reference.
func checkPack(t *testing.T, patterns, texts [][]int32) {
	t.Helper()
	var p packer
	members := make([]int, len(patterns))
	for i := range members {
		members[i] = i
	}
	p.load(patterns, members)
	ref := new(Scratch)
	out := make([]float64, len(patterns))
	for _, text := range texts {
		p.normalized(text, 0, out)
		for k, pat := range patterns {
			if want := ref.NormalizedIDsFull(pat, text); out[k] != want {
				t.Fatalf("segment %d of %d: packed = %v, full = %v for %v vs %v", k, len(patterns), out[k], want, pat, text)
			}
		}
	}
}

// TestPackedKernelEqualsFullDP: every segment of a pack must read
// exactly the full-DP distance to the text. A three-token vocabulary
// shared by the segments and the text puts transpositions, adder
// carries and shifted deltas on every segment boundary; tokens only the
// text holds drive the skipped steps.
func TestPackedKernelEqualsFullDP(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	split := func(total int) []int {
		var lens []int
		for total > 0 {
			n := 1 + r.Intn(min(total, 8))
			if r.Intn(4) == 0 {
				n = 1 + r.Intn(total)
			}
			lens = append(lens, n)
			total -= n
		}
		return lens
	}
	pack := func(lens []int, vocab int) [][]int32 {
		out := make([][]int32, len(lens))
		for i, n := range lens {
			out[i] = genIDs(r, n, vocab, 0)
		}
		return out
	}
	texts := func(vocab int) [][]int32 {
		out := [][]int32{{}, genIDs(r, 1, vocab, 0), genIDs(r, 1000+r.Intn(300), vocab, 0)}
		for i := 0; i < 4; i++ {
			out = append(out, genIDs(r, r.Intn(90), vocab, 0))
		}
		// Long runs of tokens no segment holds, broken by matching ones.
		var mixed []int32
		for len(mixed) < 1100 {
			mixed = append(mixed, genIDs(r, r.Intn(200), 5, 100)...)
			mixed = append(mixed, genIDs(r, 1+r.Intn(6), vocab, 0)...)
		}
		return append(out, mixed)
	}
	for i := 0; i < 150; i++ {
		checkPack(t, pack(split(1+r.Intn(bitvecMax)), 3), texts(3))
		checkPack(t, pack(split(bitvecMax), 3), texts(3)) // the top segment owns bit 63
	}
	ones := make([]int, bitvecMax)
	for k := range ones {
		ones[k] = 1
	}
	for _, lens := range [][]int{{bitvecMax}, ones, {1, bitvecMax - 1}, {bitvecMax - 1, 1}} {
		for i := 0; i < 20; i++ {
			checkPack(t, pack(lens, 3), texts(3))
			checkPack(t, pack(lens, 12), texts(12))
		}
	}
}

// TestPackedKernelSkips: a token no segment holds, once no +1 vertical
// delta is left, costs no word step; from limits what is written and
// counted, not the pass.
func TestPackedKernelSkips(t *testing.T) {
	seqs := [][]int32{{0, 1}, {1, 0, 2}}
	var p packer
	p.load(seqs, []int{0, 1})
	text := []int32{0, 1}
	for len(text) < 500 {
		text = append(text, 5)
	}
	out := make([]float64, 2)
	p.normalized(text, 0, out)
	if st := p.stats; st.CellsDP >= int64(len(text)) || st.Pairs != 2 || st.BandPasses != 1 {
		t.Errorf("stats %+v over a %d-token text: no step skipped", st, len(text))
	}
	ref := new(Scratch)
	for k, s := range seqs {
		if want := ref.NormalizedIDsFull(s, text); out[k] != want {
			t.Errorf("segment %d: %v, want %v", k, out[k], want)
		}
	}
	out = []float64{-1, -1}
	p.normalized(text, 1, out)
	if out[0] != -1 || out[1] < 0 || p.stats.Pairs != 3 {
		t.Errorf("from=1 wrote %v, pairs %d", out, p.stats.Pairs)
	}
}

// TestPacks: splitPacks makes ascending runs of short sequences holding
// at most bitvecMax tokens; empty and longer ones are long.
func TestPacks(t *testing.T) {
	lens := []int{3, 0, 64, 65, 1, 60, 4, 2000, 30, 30, 5}
	seqs := make([][]int32, len(lens))
	for i, n := range lens {
		seqs[i] = make([]int32, n)
	}
	packs, long := splitPacks(seqs)
	if got, want := fmt.Sprint(packs, long), "[[0] [2] [4 5] [6 8 9] [10]] [1 3 7]"; got != want {
		t.Errorf("splitPacks = %s, want %s", got, want)
	}
}

// FuzzPackedKernel fuzzes the packed kernel against the full-DP
// reference. Pattern bytes become segments over a four-token
// vocabulary (a byte >= 0xf0 ends one); the text adds a fifth token no
// segment holds, so the skipped steps are reached too.
func FuzzPackedKernel(f *testing.F) {
	f.Add([]byte("abc\xf0ba\xf0c"), []byte("abcabcxxxxxcba"))
	f.Add([]byte("a"), []byte(""))
	f.Add([]byte("abababababababababababababababababababababababababababababababab"), []byte("babababa"))
	f.Fuzz(func(t *testing.T, rawPat, rawText []byte) {
		var pats [][]int32
		var cur []int32
		total := 0
		for _, c := range rawPat {
			if c >= 0xf0 {
				if len(cur) > 0 {
					pats, cur = append(pats, cur), nil
				}
				continue
			}
			if total == bitvecMax {
				break
			}
			cur = append(cur, int32(c%4))
			total++
		}
		if len(cur) > 0 {
			pats = append(pats, cur)
		}
		if len(pats) == 0 {
			return
		}
		if len(rawText) > 300 {
			rawText = rawText[:300]
		}
		text := make([]int32, len(rawText))
		for i, c := range rawText {
			text[i] = int32(c % 5)
		}
		checkPack(t, pats, [][]int32{text})
	})
}
