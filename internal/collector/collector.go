// Package collector is the honeynet's central session database: nodes
// forward completed session records to a collector, which indexes them
// by month for the longitudinal analyses. (Section 3.2: "the recorded
// session is forwarded to a collector and added to the honeynet
// database".)
package collector

import (
	"sort"
	"sync"
	"time"

	"honeynet/internal/parallel"
	"honeynet/internal/session"
)

// Store holds session records with a monthly index. All methods are
// safe for concurrent use: queries take a snapshot of the record list,
// so they observe a consistent prefix even while Add keeps appending.
type Store struct {
	mu   sync.RWMutex
	recs []*session.Record
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Add appends a record. The store retains r; callers must not mutate
// it afterwards.
func (s *Store) Add(r *session.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}

// Sink adapts the store to honeypot.Config.Sink: an in-memory append
// cannot fail, so it always returns nil.
func (s *Store) Sink(r *session.Record) error {
	s.Add(r)
	return nil
}

// Len returns the record count.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// All returns a snapshot of the records in insertion order: the
// returned slice is capacity-clamped, so concurrent Adds can never
// surface through it and every query over it sees a stable prefix of
// the store. Do not mutate the records.
func (s *Store) All() []*session.Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recs[:len(s.recs):len(s.recs)]
}

// Filter returns records satisfying pred.
func (s *Store) Filter(pred func(*session.Record) bool) []*session.Record {
	var out []*session.Record
	for _, r := range s.All() {
		if pred(r) {
			out = append(out, r)
		}
	}
	return out
}

// Stats summarizes the dataset the way section 3.3 reports it: every
// recorded session by protocol, and the kind split over the SSH subset
// (the paper's 546M SSH of 635M total).
type Stats struct {
	Total     int
	SSH       int
	Telnet    int
	SSHByKind [4]int // SSH sessions per session.Kind
	UniqueIPs int
}

// StatsN computes dataset-level statistics in one pass using up to
// `workers` goroutines. Every tally is a count or a set-union, so the
// merge is order-invariant and the result is identical for any worker
// count.
func (s *Store) StatsN(workers int) Stats {
	recs := s.All()
	workers = parallel.Workers(workers)
	parts := make([]Stats, workers)
	ipSets := make([]map[string]bool, workers)
	for w := range ipSets {
		ipSets[w] = map[string]bool{}
	}
	parallel.ForEach(len(recs), workers, 4096, func(w, lo, hi int) {
		st, ips := &parts[w], ipSets[w]
		for _, r := range recs[lo:hi] {
			st.Total++
			switch r.Protocol {
			case session.ProtoSSH:
				st.SSH++
				st.SSHByKind[r.Kind()]++
			case session.ProtoTelnet:
				st.Telnet++
			}
			ips[r.ClientIP] = true
		}
	})
	st, ips := parts[0], ipSets[0]
	for w := 1; w < workers; w++ {
		p := &parts[w]
		st.Total += p.Total
		st.SSH += p.SSH
		st.Telnet += p.Telnet
		for k, v := range p.SSHByKind {
			st.SSHByKind[k] += v
		}
		for ip := range ipSets[w] {
			ips[ip] = true
		}
	}
	st.UniqueIPs = len(ips)
	return st
}

// SortedMonths returns the sorted keys of a monthly grouping.
func SortedMonths[T any](m map[time.Time]T) []time.Time {
	out := make([]time.Time, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}
