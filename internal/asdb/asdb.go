// Package asdb is the synthetic Autonomous System registry standing in
// for the historic-WHOIS + bgp.tools + PeeringDB pipeline of section 3.5.
// It supplies, for any (IP, time) pair, the announcing AS with its type
// tag (CDN / Hosting / ISP-NSP / Other), registration date, and announced
// /24 count — the three attributes Figures 7, 8, and 17 join on.
//
// The registry is deterministic given a seed. IPs are allocated from
// 10.0.0.0/8 in fixed-size per-AS blocks so reverse lookup is O(1), like
// a longest-prefix match over per-AS aggregates.
package asdb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"time"
)

// Type tags an AS the way bgp.tools/PeeringDB labels collapse in the
// paper's analysis.
type Type int

// AS type tags.
const (
	TypeCDN Type = iota
	TypeHosting
	TypeISPNSP
	TypeOther
)

// String returns the tag label used in the figures.
func (t Type) String() string {
	switch t {
	case TypeCDN:
		return "CDN"
	case TypeHosting:
		return "Hosting"
	case TypeISPNSP:
		return "ISP/NSP"
	case TypeOther:
		return "Other"
	default:
		return "?"
	}
}

// AS is one autonomous system.
type AS struct {
	ASN        int
	Name       string
	Type       Type
	Registered time.Time
	// Prefixes24 is the deaggregated /24 count the AS announces.
	Prefixes24 int
	// Down marks ASes that no longer announce any prefix (the paper
	// found 36 such among malware-storage ASes).
	Down bool

	index int // block index for IP allocation
}

// AgeAt returns the AS age at time t.
func (a *AS) AgeAt(t time.Time) time.Duration { return t.Sub(a.Registered) }

// hostBits is the size of each AS's IP block: 4096 addresses.
const hostBits = 12

// ipBase is the start of the allocation space (10.0.0.0).
const ipBase = uint32(10) << 24

// Registry is the AS database. NewRegistry draws every AS it will ever
// hold, so a registry is a function of its seed and never changes after
// construction: it is safe for concurrent use without locks.
type Registry struct {
	all     []*AS
	clients []*AS
	// storage is the malware-storage pool, in registration order.
	storage []*AS
}

// The registry's history runs from historyStart to historyEnd. The
// storage pool is the paper's 388 distinct storage ASes, registered
// evenly across that history, so each of its quarters holds three or
// four.
const (
	historyStart = 1995
	historyEnd   = 2025
	storageASes  = 388
)

// NewRegistry builds a registry with nClients client-side ASes (ISP/NSP
// heavy, matching the Sankey's left side) followed by the storage pool,
// all drawn from the given seed.
func NewRegistry(seed int64, nClients int) *Registry {
	r := &Registry{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nClients; i++ {
		// Client IPs are mostly end hosts: 72% ISP/NSP, 15% Hosting,
		// 3% CDN, 10% Other.
		var typ Type
		switch p := rng.Float64(); {
		case p < 0.72:
			typ = TypeISPNSP
		case p < 0.87:
			typ = TypeHosting
		case p < 0.90:
			typ = TypeCDN
		default:
			typ = TypeOther
		}
		// Client ASes skew old (established eyeball networks).
		reg := time.Date(historyStart+rng.Intn(25), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC)
		r.clients = append(r.clients, r.newAS(typ, reg, samplePrefixCount(rng, false)))
	}
	const quarters = (historyEnd - historyStart) * 4
	for i := 0; i < storageASes; i++ {
		// Storage-pool composition: 358/388 hosting-like (92%), the rest
		// ISPs — the section 7 breakdown.
		typ := TypeHosting
		switch p := rng.Float64(); {
		case p < 0.08:
			typ = TypeISPNSP
		case p < 0.13:
			typ = TypeCDN
		case p < 0.18:
			typ = TypeOther
		}
		q := i * quarters / storageASes
		reg := time.Date(historyStart+q/4, time.Month(1+q%4*3+rng.Intn(3)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC)
		as := r.newAS(typ, reg, samplePrefixCount(rng, true))
		// No longer announcing, like the 36 dead ASes found.
		as.Down = rng.Float64() < float64(36)/storageASes
		r.storage = append(r.storage, as)
	}
	sort.SliceStable(r.storage, func(i, j int) bool { return r.storage[i].Registered.Before(r.storage[j].Registered) })
	return r
}

// newAS registers an AS and assigns it the next IP block.
func (r *Registry) newAS(typ Type, registered time.Time, prefixes int) *AS {
	n := len(r.all)
	as := &AS{
		ASN:        64512 + n, // private-use ASN space, then beyond
		Name:       fmt.Sprintf("AS-%s-%d", typ, 64512+n),
		Type:       typ,
		Registered: registered,
		Prefixes24: prefixes,
		index:      n,
	}
	r.all = append(r.all, as)
	return as
}

// samplePrefixCount draws an announced-/24 count. Storage ASes follow
// Figure 8(b): ~20% single /24, ~30% below 50, ~50% above.
func samplePrefixCount(rng *rand.Rand, storage bool) int {
	p := rng.Float64()
	if storage {
		switch {
		case p < 0.20:
			return 1
		case p < 0.50:
			return 2 + rng.Intn(48)
		default:
			return 50 + rng.Intn(2000)
		}
	}
	// Client-side (eyeball) networks are typically large.
	return 10 + rng.Intn(5000)
}

// Clients returns the client-AS pool.
func (r *Registry) Clients() []*AS { return r.clients }

// quarter numbers the calendar quarter t falls in.
func quarter(t time.Time) int { return t.Year()*4 + (int(t.Month())-1)/3 }

// SampleStorageAS draws a malware-storage AS whose age at time `at`
// follows Figure 8(a): ~35% younger than one year, ~70% younger than
// five. It picks uniformly among the pool's ASes registered in the drawn
// quarter and not after `at` — or, when there are none, in the nearest
// quarter that has some — so repeated draws reuse infrastructure the way
// the paper observes, and a drawn AS always resolves at `at`.
func (r *Registry) SampleStorageAS(rng *rand.Rand, at time.Time) *AS {
	var age time.Duration
	const year = 365 * 24 * time.Hour
	switch p := rng.Float64(); {
	case p < 0.35:
		age = time.Duration(rng.Int63n(int64(year)))
	case p < 0.70:
		age = year + time.Duration(rng.Int63n(int64(4*year)))
	default:
		age = 5*year + time.Duration(rng.Int63n(int64(20*year)))
	}
	reg := at.Add(-age)

	// The ASes registered by `at` are a prefix of the pool; an `at`
	// before the whole pool gets its oldest AS.
	pool := r.storage[:max(1, sort.Search(len(r.storage), func(i int) bool { return r.storage[i].Registered.After(at) }))]
	in := func(q int) (lo, hi int) {
		lo = sort.Search(len(pool), func(i int) bool { return quarter(pool[i].Registered) >= q })
		hi = sort.Search(len(pool), func(i int) bool { return quarter(pool[i].Registered) > q })
		return lo, hi
	}
	lo, hi := in(quarter(reg))
	if lo == hi {
		near := lo
		if lo == len(pool) || lo > 0 && reg.Sub(pool[lo-1].Registered) <= pool[lo].Registered.Sub(reg) {
			near = lo - 1
		}
		lo, hi = in(quarter(pool[near].Registered))
	}
	return pool[lo+rng.Intn(hi-lo)]
}

// IPFor returns the host'th IP address inside the AS's block.
func (r *Registry) IPFor(as *AS, host int) string {
	v := ipBase + uint32(as.index)<<hostBits + uint32(host)&(1<<hostBits-1)
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return net.IP(b[:]).String()
}

// Lookup returns the AS announcing ip at time `at` (historic lookup).
// The boolean is false for addresses outside the registry or announced
// only after `at`.
func (r *Registry) Lookup(ip string, at time.Time) (*AS, bool) {
	parsed := net.ParseIP(ip)
	if parsed == nil {
		return nil, false
	}
	v4 := parsed.To4()
	if v4 == nil {
		return nil, false
	}
	v := binary.BigEndian.Uint32(v4)
	if v < ipBase {
		return nil, false
	}
	idx := int((v - ipBase) >> hostBits)
	if idx < 0 || idx >= len(r.all) {
		return nil, false
	}
	as := r.all[idx]
	if as.Registered.After(at) {
		return nil, false
	}
	return as, true
}
