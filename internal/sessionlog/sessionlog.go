// Package sessionlog is the crash-safe JSONL session store for a
// long-running honeypot: buffered appends with periodic fsync,
// size-based rotation, torn-tail recovery on reopen, and an error
// counter so a full disk is visible in metrics instead of silently
// eating months of sessions. The on-disk format is exactly the JSONL
// of internal/session — every rotated segment loads with
// session.ReadAll.
package sessionlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/session"
)

// Options parameterizes a file-backed Writer.
type Options struct {
	// MaxSize rotates the log when appending a record would push the
	// current segment past this many bytes. Zero disables rotation.
	MaxSize int64
	// SyncEvery is the fsync cadence: a background ticker flushes and
	// syncs dirty data at this interval. Zero means one second; a
	// negative value disables periodic sync (Flush/Close still sync).
	SyncEvery time.Duration
	// BufSize is the write-buffer size; zero means 256 KiB.
	BufSize int
}

func (o *Options) syncEvery() time.Duration {
	if o.SyncEvery == 0 {
		return time.Second
	}
	return o.SyncEvery
}

func (o *Options) bufSize() int {
	if o.BufSize > 0 {
		return o.BufSize
	}
	return 256 << 10
}

// Writer appends session records as JSON lines. All methods are safe
// for concurrent use.
type Writer struct {
	mu     sync.Mutex
	f      *os.File      // nil in stream mode
	w      io.Writer     // underlying stream (stream mode only)
	bw     *bufio.Writer // over f or w
	path   string
	opts   Options
	size   int64 // current segment size including buffered bytes
	rotIdx int   // next rotation suffix
	dirty  bool
	closed bool

	errs      atomic.Int64
	rotations atomic.Int64
	written   atomic.Int64
	recovered atomic.Int64

	stop chan struct{} // closes the sync loop; nil if none
	done chan struct{}
}

// Open opens (creating if needed) the JSONL log at path, recovering a
// torn tail left by a crash: any trailing partial or corrupt line is
// truncated away so the file ends on a complete record boundary.
func Open(path string, opts Options) (*Writer, error) {
	dropped, err := RecoverTail(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{
		f:      f,
		bw:     bufio.NewWriterSize(f, opts.bufSize()),
		path:   path,
		opts:   opts,
		size:   st.Size(),
		rotIdx: nextRotIndex(path),
	}
	w.recovered.Store(dropped)
	if opts.syncEvery() > 0 {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop(opts.syncEvery())
	}
	return w, nil
}

// NewStream returns a Writer over an arbitrary stream (e.g. stdout):
// buffered, no rotation, no fsync, but the same error accounting.
func NewStream(out io.Writer) *Writer {
	return &Writer{w: out, bw: bufio.NewWriterSize(out, (&Options{}).bufSize())}
}

// Errors returns the number of failed writes (marshal, I/O, or
// rotation failures). Each failed Write increments it exactly once.
func (w *Writer) Errors() int64 { return w.errs.Load() }

// Rotations returns how many segments have been rotated out.
func (w *Writer) Rotations() int64 { return w.rotations.Load() }

// Written returns the number of records successfully buffered.
func (w *Writer) Written() int64 { return w.written.Load() }

// Recovered returns the number of torn-tail bytes truncated away when
// the log was opened.
func (w *Writer) Recovered() int64 { return w.recovered.Load() }

// Register exposes the writer's counters on reg:
//
//	honeynet_sessionlog_written_total
//	honeynet_sessionlog_rotations_total
//	honeynet_sessionlog_errors_total
//	honeynet_sessionlog_recovered_bytes
func (w *Writer) Register(reg *obs.Registry) {
	reg.CounterFunc("honeynet_sessionlog_written_total",
		"Session records successfully buffered to the log.", w.Written)
	reg.CounterFunc("honeynet_sessionlog_rotations_total",
		"Log segments rotated out.", w.Rotations)
	reg.CounterFunc("honeynet_sessionlog_errors_total",
		"Failed session-log writes (marshal, I/O, or rotation failures).", w.Errors)
	reg.GaugeFunc("honeynet_sessionlog_recovered_bytes",
		"Torn-tail bytes truncated away when the log was opened.",
		func() float64 { return float64(w.Recovered()) })
}

// lineScratch pools encode buffers so Write's marshal step allocates
// nothing in steady state.
var lineScratch = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// Write appends one record. Records are marshaled with the shared
// canonical encoder (session.AppendJSON), so the log's bytes are
// identical to what encoding/json would produce — and to what
// internal/store writes for the same record.
func (w *Writer) Write(r *session.Record) error {
	bp := lineScratch.Get().(*[]byte)
	line, err := session.AppendJSON((*bp)[:0], r)
	if err != nil {
		lineScratch.Put(bp)
		w.errs.Add(1)
		return fmt.Errorf("sessionlog: marshal: %w", err)
	}
	err = w.appendLine(line)
	*bp = line[:0]
	lineScratch.Put(bp)
	if err != nil {
		return err
	}
	w.written.Add(1)
	return nil
}

// appendLine appends one already-marshaled JSON line (without the
// trailing newline), rotating first if needed.
func (w *Writer) appendLine(line []byte) error {
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		w.errs.Add(1)
		return fmt.Errorf("sessionlog: writer closed")
	}
	if w.f != nil && w.opts.MaxSize > 0 && w.size > 0 && w.size+int64(len(line)) > w.opts.MaxSize {
		if err := w.rotateLocked(); err != nil {
			w.errs.Add(1)
			return fmt.Errorf("sessionlog: rotate: %w", err)
		}
	}
	if _, err := w.bw.Write(line); err != nil {
		w.errs.Add(1)
		return fmt.Errorf("sessionlog: write: %w", err)
	}
	w.size += int64(len(line))
	w.dirty = true
	return nil
}

// Snapshot is the operational-counter trailer recorded into the session
// log when a node drains: a post-mortem of a long run keeps its
// counters next to its sessions. On disk it is one JSONL line of the
// form {"_obs":{...}} — session.ReadAll skips such lines (see
// session.IsObsTrailer), so datasets with trailers load unchanged.
type Snapshot struct {
	// Time is when the snapshot was taken.
	Time time.Time `json:"time"`
	// Reason says why ("drain", "rotate", ...).
	Reason string `json:"reason,omitempty"`
	// Metrics is the flattened obs registry (obs.Registry.Snapshot).
	Metrics map[string]float64 `json:"metrics"`
}

// trailerLine is the on-disk envelope. The _obs field marshals first,
// which is what session.IsObsTrailer keys on.
type trailerLine struct {
	Obs *Snapshot `json:"_obs"`
}

// WriteSnapshot appends a metrics snapshot trailer line. It does not
// count toward Written (it is not a session record) but does count
// toward segment size, and a failed write increments Errors.
func (w *Writer) WriteSnapshot(s Snapshot) error {
	line, err := json.Marshal(trailerLine{Obs: &s})
	if err != nil {
		w.errs.Add(1)
		return fmt.Errorf("sessionlog: marshal snapshot: %w", err)
	}
	return w.appendLine(line)
}

// ReadSnapshots extracts the metrics-snapshot trailers from a JSONL
// stream, in order, ignoring session records and blank lines.
func ReadSnapshots(r io.Reader) ([]Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var out []Snapshot
	for {
		line, err := br.ReadBytes('\n')
		trimmed := bytes.TrimSpace(line)
		if session.IsObsTrailer(trimmed) {
			var t trailerLine
			if uerr := json.Unmarshal(trimmed, &t); uerr != nil {
				return nil, fmt.Errorf("sessionlog: bad snapshot trailer: %w", uerr)
			}
			if t.Obs != nil {
				out = append(out, *t.Obs)
			}
		}
		if err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, err
		}
	}
}

// rotateLocked seals the current segment as path.<n> and starts a
// fresh one. Caller holds w.mu.
func (w *Writer) rotateLocked() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	rotated := fmt.Sprintf("%s.%d", w.path, w.rotIdx)
	if err := os.Rename(w.path, rotated); err != nil {
		// Reopen the old segment so writes keep flowing even if the
		// rename failed (e.g. permissions): durability beats rotation.
		f, oerr := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if oerr == nil {
			w.f = f
			w.bw.Reset(f)
		}
		return err
	}
	w.rotIdx++
	w.rotations.Add(1)
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	w.bw.Reset(f)
	w.size = 0
	return nil
}

// Flush pushes buffered data to the OS and, for file-backed writers,
// fsyncs it to stable storage.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

func (w *Writer) flushLocked() error {
	if err := w.bw.Flush(); err != nil {
		w.errs.Add(1)
		return err
	}
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			w.errs.Add(1)
			return err
		}
	}
	w.dirty = false
	return nil
}

// Close flushes, syncs, and closes the writer. Further Writes fail.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	err := w.flushLocked()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	stop := w.stop
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-w.done
	}
	return err
}

// syncLoop periodically flushes+fsyncs dirty data so an idle-period
// crash loses at most SyncEvery worth of sessions.
func (w *Writer) syncLoop(every time.Duration) {
	defer close(w.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed && w.dirty {
				_ = w.flushLocked()
			}
			w.mu.Unlock()
		}
	}
}

// RecoverTail truncates path so it ends on a complete, valid JSON line
// — undoing a torn write from a crash mid-append. It returns the
// number of bytes dropped. A missing file is not an error.
func RecoverTail(path string) (dropped int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	if size == 0 {
		return 0, nil
	}
	// Scan forward, tracking the offset just past the last line that
	// both terminates with '\n' and parses as JSON.
	br := bufio.NewReaderSize(f, 1<<20)
	var good, off int64
	for {
		line, rerr := br.ReadBytes('\n')
		off += int64(len(line))
		if rerr == nil && json.Valid(bytes.TrimSuffix(line, []byte("\n"))) {
			good = off
		}
		if rerr != nil {
			break
		}
	}
	if good == size {
		return 0, nil
	}
	if err := f.Truncate(good); err != nil {
		return 0, err
	}
	return size - good, nil
}

// ParseSize parses human byte sizes for the rotation threshold:
// "256MB", "64m", "1GiB", "1048576". Empty or "0" disables rotation.
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "" || t == "0" {
		return 0, nil
	}
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
		{"B", 1},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t = strings.TrimSuffix(t, u.suffix)
			mult = u.mult
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("sessionlog: bad size %q", s)
	}
	return v * mult, nil
}

// nextRotIndex returns one past the highest existing rotation suffix
// of path, so restarts never overwrite a sealed segment.
func nextRotIndex(path string) int {
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		return 1
	}
	next := 1
	for _, m := range matches {
		s := strings.TrimPrefix(m, path+".")
		if n, err := strconv.Atoi(s); err == nil && n >= next {
			next = n + 1
		}
	}
	return next
}
