package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around its own
// call into a layer (or between two of the program's hooks). Spans of
// one op share Op; Parent is the index of the enclosing span, -1 at
// the root. Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced slices pay one nil check per call site.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span and returns its id for close and for children.
func (l *spanLog) open(name string, op int, parent int32, start time.Time) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{Name: name, Start: int64(start.Sub(l.t0)), Parent: parent, Op: int32(op)})
	l.mu.Unlock()
	return id
}

func (l *spanLog) close(id int32, end time.Time) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	l.spans[id].End = int64(end.Sub(l.t0))
	l.mu.Unlock()
}

// add records a finished span.
func (l *spanLog) add(name string, op int, parent int32, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Start: int64(start.Sub(l.t0)), End: int64(end.Sub(l.t0)), Parent: parent, Op: int32(op)})
	l.mu.Unlock()
}

// spanAgg is one span name's totals across a traced run.
type spanAgg struct {
	Name  string
	Count int
	Total time.Duration
	// Self is Total minus the part of each span its children cover.
	Self time.Duration
	// Root marks names that only ever appear without a parent.
	Root bool
}

// aggregate folds the log by span name, largest self time first.
func (l *spanLog) aggregate() []spanAgg {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent < 0 || s.End == 0 {
			continue
		}
		p := l.spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			child[s.Parent] += hi - lo
		}
	}
	byName := map[string]*spanAgg{}
	for i, s := range l.spans {
		if s.End == 0 {
			continue // never closed: the op failed mid-way
		}
		a := byName[s.Name]
		if a == nil {
			a = &spanAgg{Name: s.Name, Root: true}
			byName[s.Name] = a
		}
		d := s.End - s.Start
		a.Count++
		a.Total += time.Duration(d)
		a.Self += time.Duration(max(d-child[i], 0))
		if s.Parent >= 0 {
			a.Root = false
		}
	}
	out := make([]spanAgg, 0, len(byName))
	for _, a := range byName {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// durations returns every closed span of one name, in ms.
func (l *spanLog) durations(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && s.End != 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeJSON dumps the raw spans, one JSON array.
func (l *spanLog) writeJSON(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(l.spans)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
