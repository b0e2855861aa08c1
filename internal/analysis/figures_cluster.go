package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"honeynet/internal/cluster"
	"honeynet/internal/report"
	"honeynet/internal/textdist"
)

// ClusterConfig tunes the section 6 clustering pipeline.
type ClusterConfig struct {
	// K is the cluster count (the paper selects 90 via elbow+silhouette).
	K int
	// SampleSize caps how many file-involving sessions are clustered;
	// the pairwise matrix is quadratic. Distinct command texts are
	// deduplicated first with multiplicity preserved.
	SampleSize int
	// Seed fixes sampling and medoid initialization.
	Seed int64
	// Workers caps the goroutines used for the distance matrix and the
	// K-medoids steps (<= 0 means runtime.GOMAXPROCS(0)). The result is
	// identical for every value.
	Workers int
}

func (c ClusterConfig) defaults() ClusterConfig {
	if c.K == 0 {
		c.K = 90
	}
	if c.SampleSize == 0 {
		c.SampleSize = 2000
	}
	return c
}

// ClusterResult is the outcome of the session-clustering pipeline.
type ClusterResult struct {
	K int
	// Texts are the distinct clustered command texts.
	Texts []string
	// Weight is how many sessions share each text.
	Weight []int
	// Months[i] counts the sessions of text i per month.
	Months []map[time.Time]int
	// DroppedHashes[i] are the distinct hashes the sessions of text i
	// dropped.
	DroppedHashes [][]string
	// Matrix is the normalized token-DLD distance matrix over Texts.
	Matrix *cluster.Matrix
	// Res is the raw K-medoids result over Texts.
	Res *cluster.Result
	// Order maps display rank -> cluster id, sorted by ascending mean
	// token count (the paper sorts Cluster 1..90 this way).
	Order []int
	// Labels maps cluster id -> abuse-database family labels observed.
	Labels map[int][]string
}

// RunClustering executes the full pipeline: select sessions with
// downloads/drops, tokenize, build the DLD matrix (all via the shared
// DLDSample, so a preceding or following SelectK reuses the work),
// K-medoids, and label clusters via the abuse database.
func RunClustering(w *World, cfg ClusterConfig) (*ClusterResult, error) {
	cfg = cfg.defaults()
	smp, err := w.DLDSample(cfg)
	if err != nil {
		return nil, err
	}
	res := &ClusterResult{
		Texts:         smp.Texts,
		Weight:        smp.Weight,
		Months:        smp.Months,
		DroppedHashes: smp.DroppedHashes,
		Matrix:        smp.Matrix,
	}
	tokens := smp.Tokens

	k := cfg.K
	if k > len(res.Texts) {
		k = len(res.Texts)
	}
	res.K = k

	sp := w.span("cluster.kmedoids")
	cres, err := cluster.KMedoids(res.Matrix, k, cluster.Config{Seed: cfg.Seed, Workers: cfg.Workers})
	sp.End()
	if err != nil {
		return nil, err
	}
	res.Res = cres

	// Sort clusters by mean token count (Cluster 1 = shortest).
	meanTokens := make([]float64, k)
	counts := make([]int, k)
	for i, c := range cres.Assign {
		meanTokens[c] += float64(len(tokens[i]))
		counts[c]++
	}
	for c := range meanTokens {
		if counts[c] > 0 {
			meanTokens[c] /= float64(counts[c])
		}
	}
	res.Order = make([]int, k)
	for i := range res.Order {
		res.Order[i] = i
	}
	sort.Slice(res.Order, func(a, b int) bool {
		return meanTokens[res.Order[a]] < meanTokens[res.Order[b]]
	})

	// Label clusters by joining member hashes against the abuse DB.
	defer w.span("cluster.labels").End()
	res.Labels = map[int][]string{}
	for c := 0; c < k; c++ {
		seen := map[string]bool{}
		for _, i := range cres.Members(c) {
			for _, h := range res.DroppedHashes[i] {
				if label, ok := w.AbuseDB.LookupHash(h); ok && !seen[label] {
					seen[label] = true
					res.Labels[c] = append(res.Labels[c], label)
				}
			}
		}
		sort.Strings(res.Labels[c])
	}
	return res, nil
}

// ClusterWeight returns the total session weight of cluster c.
func (cr *ClusterResult) ClusterWeight(c int) int {
	n := 0
	for _, i := range cr.Res.Members(c) {
		n += cr.Weight[i]
	}
	return n
}

// Fig5Table summarizes the distance matrix per displayed cluster: the
// paper's heatmap reduced to intra- and inter-cluster mean normalized
// DLD per cluster (in the paper's size order).
func (cr *ClusterResult) Fig5Table(maxRows int) *report.Table {
	t := &report.Table{
		Title:   "Figure 5: normalized DLD matrix (cluster summary)",
		Headers: []string{"cluster", "texts", "sessions", "mean_intra_dld", "mean_inter_dld", "labels"},
	}
	// One pass over the matrix triangle accumulates, per text, its
	// distance mass toward every cluster. Each displayed row then reads
	// its intra/inter sums in O(members) instead of rescanning all
	// O(members·N) cells per cluster.
	k, n := cr.K, cr.Matrix.N
	rowCluster := make([]float64, n*k)
	rowTotal := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := cr.Matrix.At(i, j)
			rowCluster[i*k+cr.Res.Assign[j]] += d
			rowCluster[j*k+cr.Res.Assign[i]] += d
			rowTotal[i] += d
			rowTotal[j] += d
		}
	}
	for rank, c := range cr.Order {
		if maxRows > 0 && rank >= maxRows {
			break
		}
		members := cr.Res.Members(c)
		intra, inter := 0.0, 0.0
		for _, i := range members {
			intra += rowCluster[i*k+c]
			inter += rowTotal[i] - rowCluster[i*k+c]
		}
		// Intra sums count each unordered member pair twice.
		intraN := len(members) * (len(members) - 1) / 2
		interN := len(members) * (n - len(members))
		if intraN > 0 {
			intra = intra / 2 / float64(intraN)
		} else {
			intra = 0
		}
		if interN > 0 {
			inter /= float64(interN)
		} else {
			inter = 0
		}
		t.AddRow(fmt.Sprintf("C-%d", rank+1), len(members), cr.ClusterWeight(c),
			intra, inter, strings.Join(cr.Labels[c], "+"))
	}
	return t
}

// Fig6Month is one month's session share per top cluster.
type Fig6Month struct {
	Month  time.Time
	Total  int
	Shares map[string]float64 // display name -> share
}

// Fig6 tracks the top-5 clusters (by total sessions) over time.
func (cr *ClusterResult) Fig6(topN int) []Fig6Month {
	type cw struct {
		c, w int
	}
	weights := make([]cw, cr.K)
	for c := 0; c < cr.K; c++ {
		weights[c] = cw{c, cr.ClusterWeight(c)}
	}
	sort.Slice(weights, func(a, b int) bool { return weights[a].w > weights[b].w })
	if topN > len(weights) {
		topN = len(weights)
	}
	top := weights[:topN]

	rankOf := map[int]int{}
	for rank, c := range cr.Order {
		rankOf[c] = rank + 1
	}
	name := func(c int) string {
		l := ""
		if len(cr.Labels[c]) > 0 {
			l = " (" + strings.Join(cr.Labels[c], ", ") + ")"
		}
		return fmt.Sprintf("C-%d%s", rankOf[c], l)
	}

	monthTotal := map[time.Time]int{}
	monthCluster := map[time.Time]map[string]int{}
	for i := range cr.Texts {
		c := cr.Res.Assign[i]
		inTop := false
		for _, t := range top {
			if t.c == c {
				inTop = true
				break
			}
		}
		for m, n := range cr.Months[i] {
			monthTotal[m] += n
			if inTop {
				if monthCluster[m] == nil {
					monthCluster[m] = map[string]int{}
				}
				monthCluster[m][name(c)] += n
			}
		}
	}
	var out []Fig6Month
	for _, m := range sortedMonths(monthTotal) {
		fm := Fig6Month{Month: m, Total: monthTotal[m], Shares: map[string]float64{}}
		for n, v := range monthCluster[m] {
			fm.Shares[n] = float64(v) / float64(monthTotal[m])
		}
		out = append(out, fm)
	}
	return out
}

// Fig6Table renders the top-cluster timeline.
func Fig6Table(rows []Fig6Month) *report.Table {
	names := map[string]bool{}
	for _, r := range rows {
		for n := range r.Shares {
			names[n] = true
		}
	}
	cols := make([]string, 0, len(names))
	for n := range names {
		cols = append(cols, n)
	}
	sort.Strings(cols)
	t := &report.Table{
		Title:   "Figure 6: top clusters (bots) over time",
		Headers: append([]string{"month", "sessions"}, cols...),
	}
	for _, r := range rows {
		row := []any{r.Month.Format("2006-01"), r.Total}
		for _, c := range cols {
			row = append(row, r.Shares[c])
		}
		t.AddRow(row...)
	}
	return t
}

// Fig14 computes the inter-category mean normalized DLD of Appendix B:
// for each pair of classification categories, the average distance
// between their member sessions' command texts.
type Fig14Result struct {
	Categories []string
	Mean       *cluster.Matrix
}

// Fig14 builds the category-level distance matrix from up to
// perCategory exemplar texts per category.
func Fig14(w *World, perCategory int) *Fig14Result {
	if perCategory <= 0 {
		perCategory = 20
	}
	// Exemplar selection walks the commands view in order, so it is
	// independent of how the batch classification was sharded.
	byCat := map[string][]string{}
	seen := map[string]map[string]bool{}
	texts := w.commands().texts
	for i, cat := range w.categories() {
		if len(byCat[cat]) >= perCategory {
			continue
		}
		txt := texts[i]
		if seen[cat] == nil {
			seen[cat] = map[string]bool{}
		}
		if seen[cat][txt] {
			continue
		}
		seen[cat][txt] = true
		byCat[cat] = append(byCat[cat], txt)
	}
	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)

	// Each matrix cell is the mean over an exemplar cross product: the
	// block of its two categories in the distances of every exemplar
	// pair, summed row-major, serially per cell, so the mean is
	// bit-identical to a per-pair loop for any worker count.
	var toks [][]string
	start := make([]int, len(cats)+1)
	for ci, c := range cats {
		for _, txt := range byCat[c] {
			toks = append(toks, textdist.Tokenize(txt))
		}
		start[ci+1] = len(toks)
	}
	defer w.span("fig14.dld-matrix").End()
	nt := len(toks)
	dist := make([]float64, nt*nt)
	textdist.Pairwise(toks, w.workers(), func(i, j int, d float64) {
		dist[i*nt+j], dist[j*nt+i] = d, d
	})
	m := cluster.NewMatrix(len(cats))
	for i := range cats {
		for j := i + 1; j < len(cats); j++ {
			sum := 0.0
			for r := start[i]; r < start[i+1]; r++ {
				for _, v := range dist[r*nt+start[j] : r*nt+start[j+1]] {
					sum += v
				}
			}
			m.Set(i, j, sum/float64((start[i+1]-start[i])*(start[j+1]-start[j])))
		}
	}
	return &Fig14Result{Categories: cats, Mean: m}
}

// Table renders the inter-category matrix (upper triangle).
func (f *Fig14Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Figure 14: inter-category mean normalized DLD",
		Headers: append([]string{"category"}, f.Categories...),
	}
	for i, c := range f.Categories {
		row := []any{c}
		for j := range f.Categories {
			row = append(row, f.Mean.At(i, j))
		}
		t.AddRow(row...)
	}
	return t
}
