// Package collector is an in-memory record set kept in arrival order:
// simulate.Run's result container and the sink of in-process examples.
// The analyses read a fixed record slice (core.FromRecords), and the
// durable honeynet database is internal/store.
package collector

import (
	"sync"

	"honeynet/internal/session"
)

// Store holds session records. All methods are safe for concurrent
// use: queries take a snapshot of the record list, so they observe a
// consistent prefix even while Add keeps appending.
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
