package analysis

import (
	"fmt"
	"math/rand"
	"sort"

	"honeynet/internal/cluster"
	"honeynet/internal/report"
)

// KSelection is the model-selection sweep of section 6: WCSS (for the
// elbow) and the silhouette score across candidate cluster counts.
type KSelection struct {
	Points []cluster.SweepPoint
	// ElbowK is the k at the maximal WCSS curvature.
	ElbowK int
	// BestSilhouetteK is the k maximizing the silhouette score.
	BestSilhouetteK int
}

// SelectK runs K-medoids over a sweep-sized subset of the shared
// download-session sample for each candidate k, reproducing the elbow +
// silhouette procedure with which the paper settles on k=90. The subset
// is drawn deterministically (by seed) from the DLDSample built for
// ccfg, and its distance submatrix is copied out of the already-filled
// shared matrix — no pairwise DLD is recomputed, which the
// kselect.submatrix span's pairs_reused tag surfaces.
func SelectK(w *World, ks []int, sweepSize int, seed int64, ccfg ClusterConfig) (*KSelection, error) {
	if sweepSize <= 0 {
		sweepSize = 500
	}
	smp, err := w.DLDSample(ccfg)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(smp.Texts))
	for i := range idx {
		idx[i] = i
	}
	if len(idx) > sweepSize {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		idx = idx[:sweepSize]
		sort.Ints(idx)
	}
	sp := w.span("kselect.submatrix")
	m := submatrix(smp.Matrix, idx)
	sp.Tag("pairs_reused", int64(len(idx))*int64(len(idx)-1)/2)
	sp.End()

	var valid []int
	for _, k := range ks {
		if k >= 2 && k <= len(idx) {
			valid = append(valid, k)
		}
	}
	sort.Ints(valid)
	if len(valid) == 0 {
		return nil, fmt.Errorf("analysis: no valid k in %v for %d texts", ks, len(idx))
	}
	sp = w.span("kselect.sweep")
	points, err := cluster.SweepK(m, valid, cluster.Config{Seed: seed, Workers: w.Workers})
	sp.End()
	if err != nil {
		return nil, err
	}
	sel := &KSelection{Points: points, ElbowK: cluster.Elbow(points)}
	best := points[0]
	for _, p := range points[1:] {
		if p.Silhouette > best.Silhouette {
			best = p
		}
	}
	sel.BestSilhouetteK = best.K
	return sel, nil
}

// Table renders the sweep.
func (s *KSelection) Table() *report.Table {
	t := &report.Table{
		Title:   "Section 6: cluster-count selection (elbow + silhouette)",
		Headers: []string{"k", "wcss", "silhouette", "note"},
	}
	for _, p := range s.Points {
		note := ""
		if p.K == s.ElbowK {
			note += "elbow "
		}
		if p.K == s.BestSilhouetteK {
			note += "best-silhouette"
		}
		t.AddRow(p.K, p.WCSS, p.Silhouette, note)
	}
	return t
}
