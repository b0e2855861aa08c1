// Package abusedb is the synthetic stand-in for the abuse datasets of
// section 3.4 (abuse.ch, Team Cymru, VirusTotal, ArmstrongTechs) and the
// labeled IP lists of section 9 (Killnet proxy list, the Shadowserver
// compromised-SSH report).
//
// Real feeds label only a sliver of what a honeynet collects — the paper
// resolves fewer than 700 of 16,257 hashes (~5%) — so the synthetic feed
// reproduces exactly that sparsity: a deterministic fraction of hashes
// receives a family label, the rest stay unknown.
package abusedb

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"sync"
)

// Family labels used by the abuse datasets in the paper.
const (
	LabelMalicious = "Malicious"
	LabelMirai     = "Mirai"
	LabelDofloo    = "Dofloo"
	LabelGafgyt    = "Gafgyt"
	LabelCoinMiner = "CoinMiner"
	LabelXorDDoS   = "XorDDos"
)

// Families lists all family labels.
func Families() []string {
	return []string{LabelMalicious, LabelMirai, LabelDofloo, LabelGafgyt, LabelCoinMiner, LabelXorDDoS}
}

// DB maps hashes and IPs to threat-intelligence labels.
type DB struct {
	mu sync.RWMutex
	// explicit labels registered by feeds (e.g. the simulator registers
	// the family of the payloads it generates for a labeled fraction).
	hashLabels map[string]string
	ipReported map[string]bool
	killnetIPs map[string]bool
	sshKeyHost map[string]int // public-key hash -> compromised host count

	// LabelFraction is the share of *queried* hashes that resolve when
	// no explicit label exists; matches the paper's ~5% coverage.
	LabelFraction float64
}

// New returns an empty DB with the paper's label coverage.
func New() *DB {
	return &DB{
		hashLabels:    map[string]string{},
		ipReported:    map[string]bool{},
		killnetIPs:    map[string]bool{},
		sshKeyHost:    map[string]int{},
		LabelFraction: 0.05,
	}
}

// AddHash registers an explicit hash label (a feed entry).
func (db *DB) AddHash(hash, label string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.hashLabels[hash] = label
}

// LookupHash resolves a hash to a family label. Besides explicit
// entries, a deterministic LabelFraction of arbitrary hashes resolves to
// a family inferred from the hash bits — emulating the sparse,
// best-effort coverage of public abuse databases. The boolean reports
// whether the hash is known.
func (db *DB) LookupHash(hash string) (string, bool) {
	db.mu.RLock()
	if l, ok := db.hashLabels[hash]; ok {
		db.mu.RUnlock()
		return l, true
	}
	frac := db.LabelFraction
	db.mu.RUnlock()

	h := stableHash(hash)
	if float64(h%10000)/10000 >= frac {
		return "", false
	}
	fams := Families()
	return fams[int(h/7)%len(fams)], true
}

// stableHash derives a deterministic 63-bit value from a string.
func stableHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8]) >> 1
}

// ReportIP marks an IP as reported by an abuse feed.
func (db *DB) ReportIP(ip string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.ipReported[ip] = true
}

// IPReported reports whether an IP appears in any feed.
func (db *DB) IPReported(ip string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ipReported[ip]
}

// AddKillnetIP adds an IP to the Killnet proxy blocklist.
func (db *DB) AddKillnetIP(ip string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.killnetIPs[ip] = true
}

// InKillnetList reports membership in the Killnet proxy list.
func (db *DB) InKillnetList(ip string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.killnetIPs[ip]
}

// KillnetOverlap counts how many of ips appear in the Killnet list.
func (db *DB) KillnetOverlap(ips []string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	n := 0
	for _, ip := range ips {
		if db.killnetIPs[ip] {
			n++
		}
	}
	return n
}

// RecordCompromisedKey sets the Shadowserver-style compromised-host
// count for a public-key hash.
func (db *DB) RecordCompromisedKey(keyHash string, hosts int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.sshKeyHost[keyHash] = hosts
}

// CompromisedHosts returns the number of hosts carrying the key.
func (db *DB) CompromisedHosts(keyHash string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.sshKeyHost[keyHash]
}

// MostPrevalentKey returns the key hash with the highest compromised-
// host count.
func (db *DB) MostPrevalentKey() (string, int) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	best, bestN := "", -1
	for k, n := range db.sshKeyHost {
		if n > bestN || (n == bestN && strings.Compare(k, best) < 0) {
			best, bestN = k, n
		}
	}
	return best, bestN
}
