// Package sessionlog streams session records as JSON lines to an
// io.Writer — honeypotd's stdout when it runs without a store. It is
// not a durable log: the store (internal/store) is the one place a node
// keeps its records across crashes. Each record reaches the writer as
// one complete line in one Write call, so a reader of the stream sees a
// session as soon as it ends and never half a line.
package sessionlog

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"honeynet/internal/session"
)

// Writer writes session records as JSON lines. All methods are safe for
// concurrent use.
type Writer struct {
	mu     sync.Mutex
	w      io.Writer
	line   []byte // encode scratch, reused under mu
	closed bool
}

// NewStream returns a Writer over out.
func NewStream(out io.Writer) *Writer { return &Writer{w: out} }

// Write writes one record as one line. Records are marshaled with the
// shared canonical encoder (session.AppendJSON), so the stream's bytes
// are those internal/store writes for the same record.
func (w *Writer) Write(r *session.Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("sessionlog: writer closed")
	}
	line, err := session.AppendJSON(w.line[:0], r)
	if err != nil {
		return fmt.Errorf("sessionlog: marshal: %w", err)
	}
	w.line = append(line, '\n')
	if _, err := w.w.Write(w.line); err != nil {
		return fmt.Errorf("sessionlog: write: %w", err)
	}
	return nil
}

// Close makes further Writes fail. It does not close the underlying
// writer, which the caller owns.
func (w *Writer) Close() error {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	return nil
}
