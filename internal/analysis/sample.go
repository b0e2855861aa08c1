package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"honeynet/internal/cluster"
	"honeynet/internal/obs"
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
	// FromCache reports whether Matrix was loaded from the on-disk
	// cache rather than computed.
	FromCache bool
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
// fills (or cache-loads) the distance matrix. Selection and sampling are
// byte-for-byte the pipeline RunClustering always ran, so clustered
// output is unchanged by the shared pass.
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
	if m, ok := w.loadCachedMatrix(sp, s.Texts); ok {
		s.Matrix, s.FromCache = m, true
		sp.Tag("cache_hits", 1)
		return s, nil
	}
	if w.MatrixCache != "" {
		sp.Tag("cache_misses", 1)
	}
	var st textdist.KernelStats
	s.Matrix, st = fillDLDMatrix(s.Tokens, cfg.Workers)
	sp.Tag("pairs", st.Pairs)
	sp.Tag("pairs_trivial", st.Trivial)
	sp.Tag("band_passes", st.BandPasses)
	sp.Tag("cells_dp", st.CellsDP)
	sp.Tag("cells_saved", st.CellsFull-st.CellsDP)
	w.storeCachedMatrix(sp, s.Texts, s.Matrix)
	return s, nil
}

// submatrix extracts the restriction of m to idx (ascending, distinct),
// reusing the already-computed cells instead of re-running the kernel.
func submatrix(m *cluster.Matrix, idx []int) *cluster.Matrix {
	n := len(idx)
	packed := make([]float64, n*(n-1)/2)
	p := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			packed[p] = m.At(idx[a], idx[b])
			p++
		}
	}
	sub, err := cluster.NewMatrixFromPacked(n, packed)
	if err != nil {
		// n and len(packed) are constructed consistently above.
		panic(err)
	}
	return sub
}

// The on-disk matrix cache (hnanalyze -cache DIR). Entries are
// content-addressed: the file name hashes the kernel version and the
// exact sampled texts, so any change to the store, the sampling
// parameters, or the distance kernel changes the key and the stale
// entry is simply never read. Every failure mode is non-fatal — the
// matrix is recomputed — because the cache is an accelerator, not a
// source of truth. An entry is the magic, n as a uint32, the packed
// upper triangle as little-endian float64 bits, and a CRC-32C of all
// that, so a flipped bit is a miss like a short file.
const matrixCacheMagic = "HNDLDM2\n"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// matrixCacheKey hashes the kernel version and the length-prefixed
// texts (length prefixes prevent concatenation collisions).
func matrixCacheKey(texts []string) string {
	h := sha256.New()
	io.WriteString(h, textdist.Version)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(texts)))
	h.Write(buf[:])
	for _, t := range texts {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(t)))
		h.Write(buf[:])
		io.WriteString(h, t)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func (w *World) matrixCachePath(texts []string) string {
	return filepath.Join(w.MatrixCache, "dldm-"+matrixCacheKey(texts)+".bin")
}

// loadCachedMatrix reads a cached matrix for texts; any mismatch or read
// failure is a miss, and an entry that is present but unusable is also
// tagged on sp (the matrix span) so hnanalyze -timings shows it.
func (w *World) loadCachedMatrix(sp *obs.Span, texts []string) (*cluster.Matrix, bool) {
	if w.MatrixCache == "" {
		return nil, false
	}
	raw, err := os.ReadFile(w.matrixCachePath(texts))
	if err != nil {
		return nil, false
	}
	n := len(texts)
	cells := n * (n - 1) / 2
	header := len(matrixCacheMagic) + 4
	size := header + 8*cells + 4
	if len(raw) != size ||
		string(raw[:len(matrixCacheMagic)]) != matrixCacheMagic ||
		binary.LittleEndian.Uint32(raw[len(matrixCacheMagic):]) != uint32(n) ||
		binary.LittleEndian.Uint32(raw[size-4:]) != crc32.Checksum(raw[:size-4], castagnoli) {
		sp.Tag("cache_errors", 1)
		return nil, false
	}
	packed := make([]float64, cells)
	body := raw[header:]
	for i := range packed {
		packed[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	m, err := cluster.NewMatrixFromPacked(n, packed)
	if err != nil {
		sp.Tag("cache_errors", 1)
		return nil, false
	}
	return m, true
}

// storeCachedMatrix writes the matrix for texts via a unique temp file
// and an atomic rename, so concurrent writers and crashes never leave a
// partial entry under the final name.
func (w *World) storeCachedMatrix(sp *obs.Span, texts []string, m *cluster.Matrix) {
	if w.MatrixCache == "" {
		return
	}
	if err := os.MkdirAll(w.MatrixCache, 0o755); err != nil {
		sp.Tag("cache_errors", 1)
		return
	}
	packed := m.Packed()
	buf := make([]byte, len(matrixCacheMagic)+4+8*len(packed)+4)
	copy(buf, matrixCacheMagic)
	binary.LittleEndian.PutUint32(buf[len(matrixCacheMagic):], uint32(m.N))
	body := buf[len(matrixCacheMagic)+4:]
	for i, v := range packed {
		binary.LittleEndian.PutUint64(body[8*i:], math.Float64bits(v))
	}
	binary.LittleEndian.PutUint32(buf[len(buf)-4:], crc32.Checksum(buf[:len(buf)-4], castagnoli))
	tmp, err := os.CreateTemp(w.MatrixCache, "dldm-*.tmp")
	if err != nil {
		sp.Tag("cache_errors", 1)
		return
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		sp.Tag("cache_errors", 1)
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), w.matrixCachePath(texts)); err != nil {
		sp.Tag("cache_errors", 1)
		os.Remove(tmp.Name())
	}
}
