package store

// A hand-rolled Bloom filter over client IPs, one per sealed segment:
// campaign queries (`ip =`) skip every segment whose filter excludes the
// address, which turns a "find the mdrfckr IPs" pass over years of data
// into a read of only the months the campaign touched. Stdlib only —
// FNV-1a double hashing, Kirsch-Mitzenmacher style.

// bloomBitsPerKey sizes the filter at ~10 bits per element (≈1% false
// positives with bloomHashes probes).
const (
	bloomBitsPerKey = 10
	bloomHashes     = 7
)

// Bloom is a fixed-size Bloom filter. A segment's footer holds it as
// raw bytes; the JSON form (Bits base64-encoded by encoding/json) is
// only that of the manifest entries that held it inline before
// segments had footers.
//
// M is a power of two, so a probe reduces with a mask, and the FNV
// hashes are mixed first: raw FNV-1a modulo 2^k keeps only low bits,
// which collide structurally. V names that scheme and is always 1; the
// older V=0 filters (raw hashes modulo any M) sat on HNSTORE1 segments,
// which compaction rewrites before anything probes them.
type Bloom struct {
	M    uint64 `json:"m"` // filter size in bits
	K    int    `json:"k"` // hash probes per key
	V    int    `json:"v,omitempty"`
	Bits []byte `json:"bits"`
}

// newBloom returns a filter sized for n expected keys, rounded up to a
// power of two bits so probes reduce with a mask instead of a division.
func newBloom(n int) *Bloom {
	bits := uint64(n) * bloomBitsPerKey
	pow := uint64(64)
	for pow < bits {
		pow <<= 1
	}
	return &Bloom{M: pow, K: bloomHashes, V: 1, Bits: make([]byte, pow/8)}
}

// fnvHashes returns the two independent 64-bit hashes double hashing
// derives every probe from: h1 is FNV-1a over s, h2 continues the same
// state over a salt byte (forced odd so probe strides cover the filter).
func fnvHashes(s string) (h1, h2 uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h1 = h
	h ^= 0xff
	h *= prime64
	return h1, h | 1
}

// mix64 is a 64-bit finalizer (the murmur3/splitmix constant pair):
// every input bit avalanches across the word, so the low bits a
// power-of-two reduction keeps see the whole hash.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// bases maps the raw FNV pair to the filter's probe bases.
func bases(h1, h2 uint64) (uint64, uint64) { return mix64(h1), mix64(h2) | 1 }

// Add inserts key into a filter made by newBloom.
func (b *Bloom) Add(key string) {
	h1, h2 := bases(fnvHashes(key))
	mask := b.M - 1
	for i := 0; i < b.K; i++ {
		bit := (h1 + uint64(i)*h2) & mask
		b.Bits[bit/8] |= 1 << (bit % 8)
	}
}

// MayContain reports whether key may have been added. False means
// definitely absent; true may be a false positive.
func (b *Bloom) MayContain(key string) bool {
	if b == nil || b.M == 0 {
		return true // no filter: cannot prune
	}
	h1, h2 := bases(fnvHashes(key))
	mask := b.M - 1
	for i := 0; i < b.K; i++ {
		bit := (h1 + uint64(i)*h2) & mask
		if b.Bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// bloomPrune reports, per segment, whether its filter may contain ip.
// A segment's filter loads from its footer in dir on first use; one
// that fails to load prunes nothing, and the scan that opens the
// segment reports why.
func bloomPrune(segs []*segmentMeta, dir, ip string, keep []bool) []bool {
	keep = keep[:0]
	for _, sm := range segs {
		ix, err := sm.index(dir, nil)
		keep = append(keep, err != nil || ix.bloom.MayContain(ip))
	}
	return keep
}
