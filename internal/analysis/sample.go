package analysis

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"honeynet/internal/cluster"
	"honeynet/internal/textdist"
)

// DLDSample is the shared expensive core of the section-6 analyses: the
// deduplicated download-session sample, its token streams, and the full
// pairwise normalized token-DLD matrix over it. Both RunClustering and
// SelectK consume one sample, so the quadratic matrix fill happens once
// per (SampleSize, Seed) no matter how many stages run.
type DLDSample struct {
	// Texts are the distinct sampled command texts.
	Texts []string
	// Weight is how many sessions share each text.
	Weight []int
	// Months[i] counts the sessions of text i per month (Figure 6).
	Months []map[time.Time]int
	// DroppedHashes[i] are the distinct hashes the sessions of text i
	// dropped (the cluster labels).
	DroppedHashes [][]string
	// Tokens are the tokenized texts (one shared tokenize pass).
	Tokens [][]string
	// Matrix is the normalized token-DLD distance matrix over Texts.
	Matrix *cluster.Matrix
}

// sampleKey identifies the memoized sample; a second request with the
// same key reuses the built sample instead of refilling the matrix.
type sampleKey struct {
	sampleSize int
	seed       int64
}

// DLDSample returns the shared sample for cfg, building it on first use
// and memoizing it on the World. Of cfg only SampleSize and Seed are in
// the key: K and Workers do not affect the sample or the matrix (the
// fill is worker-count invariant), so a k-sweep and the final clustering
// share one matrix.
func (w *World) DLDSample(cfg ClusterConfig) (*DLDSample, error) {
	cfg = cfg.defaults()
	key := sampleKey{sampleSize: cfg.SampleSize, seed: cfg.Seed}
	w.sampleMu.Lock()
	defer w.sampleMu.Unlock()
	if w.sample != nil && w.sampleCfg == key {
		w.Tracer.Tag("cluster.dld-matrix", "reused", 1)
		return w.sample, nil
	}
	s, err := buildDLDSample(w, cfg)
	if err != nil {
		return nil, err
	}
	w.sample, w.sampleCfg = s, key
	return s, nil
}

// buildDLDSample selects, deduplicates, downsamples, tokenizes, and
// fills the distance matrix. Selection and sampling are byte-for-byte
// the pipeline RunClustering always ran, so clustered output is
// unchanged by the shared pass.
func buildDLDSample(w *World, cfg ClusterConfig) (*DLDSample, error) {
	// Section 6 clusters the sessions in which files are loaded onto the
	// honeypot (the ~3M download sessions), not every state change.
	// Deduplicate by command text, keeping multiplicity. Obfuscated
	// variants remain distinct texts — that is what DLD absorbs.
	index := map[string]int{}
	seen := map[[2]string]bool{} // (text, dropped hash)
	s := &DLDSample{}
	cmds := w.commands()
	for j, r := range cmds.recs {
		if len(r.Downloads) == 0 {
			continue
		}
		txt := cmds.texts[j]
		i, ok := index[txt]
		if !ok {
			i = len(s.Texts)
			index[txt] = i
			s.Texts = append(s.Texts, txt)
			s.Weight = append(s.Weight, 0)
			s.Months = append(s.Months, map[time.Time]int{})
			s.DroppedHashes = append(s.DroppedHashes, nil)
		}
		s.Weight[i]++
		s.Months[i][r.Month()]++
		for _, h := range r.DroppedHashes {
			if k := [2]string{txt, h}; !seen[k] {
				seen[k] = true
				s.DroppedHashes[i] = append(s.DroppedHashes[i], h)
			}
		}
	}
	if len(s.Texts) == 0 {
		return nil, fmt.Errorf("analysis: no file-involving sessions to cluster")
	}

	// Downsample distinct texts if needed (weighted-preserving: drop
	// the rarest texts first after a shuffle for ties).
	if len(s.Texts) > cfg.SampleSize {
		rng := rand.New(rand.NewSource(cfg.Seed))
		order := rng.Perm(len(s.Texts))
		sort.SliceStable(order, func(a, b int) bool {
			return s.Weight[order[a]] > s.Weight[order[b]]
		})
		keep := order[:cfg.SampleSize]
		sort.Ints(keep)
		nt := make([]string, len(keep))
		nw := make([]int, len(keep))
		nm := make([]map[time.Time]int, len(keep))
		nh := make([][]string, len(keep))
		for j, i := range keep {
			nt[j], nw[j], nm[j], nh[j] = s.Texts[i], s.Weight[i], s.Months[i], s.DroppedHashes[i]
		}
		s.Texts, s.Weight, s.Months, s.DroppedHashes = nt, nw, nm, nh
	}

	sp := w.span("cluster.tokenize")
	s.Tokens = make([][]string, len(s.Texts))
	for i, t := range s.Texts {
		s.Tokens[i] = textdist.Tokenize(t)
	}
	sp.End()

	sp = w.span("cluster.dld-matrix")
	defer sp.End()
	s.Matrix = cluster.NewMatrix(len(s.Tokens))
	st := textdist.Pairwise(s.Tokens, cfg.Workers, s.Matrix.Set)
	sp.Tag("pairs", st.Pairs)
	sp.Tag("pairs_trivial", st.Trivial)
	sp.Tag("band_passes", st.BandPasses)
	sp.Tag("cells_dp", st.CellsDP)
	sp.Tag("cells_saved", st.CellsFull-st.CellsDP)
	return s, nil
}

// submatrix extracts the restriction of m to idx (ascending, distinct),
// reusing the already-computed cells instead of re-running the kernel.
func submatrix(m *cluster.Matrix, idx []int) *cluster.Matrix {
	sub := cluster.NewMatrix(len(idx))
	for a := range idx {
		for b := a + 1; b < len(idx); b++ {
			sub.Set(a, b, m.At(idx[a], idx[b]))
		}
	}
	return sub
}
