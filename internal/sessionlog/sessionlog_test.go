package sessionlog

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"honeynet/internal/session"
)

func rec(id uint64) *session.Record {
	return &session.Record{
		ID:       id,
		Start:    time.Unix(1_700_000_000, 0).UTC(),
		ClientIP: fmt.Sprintf("10.0.0.%d", id%250),
		Protocol: session.ProtoSSH,
		Commands: []session.Command{{Raw: "uname -a", Known: true}},
	}
}

// lineWriter records every Write call it receives.
type lineWriter struct {
	mu    sync.Mutex
	calls [][]byte
}

func (l *lineWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	l.calls = append(l.calls, bytes.Clone(p))
	l.mu.Unlock()
	return len(p), nil
}

// TestWriteFlushRead: each record reaches the underlying writer as one
// complete line the moment Write returns — nothing waits for a flush or
// Close — and the stream loads back through session.ReadAll.
func TestWriteFlushRead(t *testing.T) {
	var out lineWriter
	w := NewStream(&out)
	for i := 1; i <= 10; i++ {
		if err := w.Write(rec(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if len(out.calls) != i {
			t.Fatalf("after %d writes the stream saw %d lines", i, len(out.calls))
		}
		want, _ := session.AppendJSON(nil, rec(uint64(i)))
		if got := out.calls[i-1]; !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("line %d = %q, want the canonical encoding", i, got)
		}
	}
	recs, err := session.ReadAll(bytes.NewReader(bytes.Join(out.calls, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || recs[9].ID != 10 {
		t.Fatalf("read %d records, want 10", len(recs))
	}
}

// TestConcurrentWritesKeepLinesWhole: writers racing on one stream each
// land as one whole line per call — no interleaving, nothing lost.
func TestConcurrentWritesKeepLinesWhole(t *testing.T) {
	var out lineWriter
	w := NewStream(&out)
	const writers, per = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := w.Write(rec(uint64(g*per + i + 1))); err != nil {
					t.Errorf("write: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if len(out.calls) != writers*per {
		t.Fatalf("stream saw %d writes, want %d", len(out.calls), writers*per)
	}
	seen := map[uint64]bool{}
	for _, line := range out.calls {
		recs, err := session.ReadAll(bytes.NewReader(line))
		if err != nil || len(recs) != 1 {
			t.Fatalf("write %q is not one whole record: %v", line, err)
		}
		if seen[recs[0].ID] {
			t.Fatalf("duplicate record %d", recs[0].ID)
		}
		seen[recs[0].ID] = true
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestStreamWriteErrorsCounted: every failed write is returned to the
// caller — none is buffered away — so the node's sink counts each one
// (honeynet_node_sink_errors_total).
func TestStreamWriteErrorsCounted(t *testing.T) {
	w := NewStream(failWriter{})
	for i := 0; i < 3; i++ {
		if err := w.Write(rec(uint64(i + 1))); err == nil {
			t.Fatalf("write %d to a broken stream succeeded", i+1)
		}
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	var out lineWriter
	w := NewStream(&out)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(rec(1)); err == nil {
		t.Fatal("write after close must fail")
	}
	if len(out.calls) != 0 {
		t.Errorf("a write after close reached the stream")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}
