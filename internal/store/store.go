// Package store is the honeynet's embedded, time-partitioned session
// database: the subsystem that lets the same binaries run at the
// paper's production scale (635M sessions over 33 months), bounded by
// disk instead of memory.
//
// Writers append records to a crash-safe WAL (plain JSONL whose torn
// tail is truncated on Open, see recoverTail). Appends are group-committed:
// records enqueue in memory and a latency-bounded flusher amortizes one
// WAL write over a whole batch (Options.MaxBatch/MaxDelay), fsynced on
// the SyncEvery cadence. Sealing folds the WAL into immutable per-month
// segment files — columnar blocks of per-field compressed stripes
// behind a block directory, with a block index, per-segment time
// bounds, kind/protocol counts, and a Bloom filter over client IPs —
// committed through an atomically renamed, fsynced manifest, in one
// format (HNSTORE3) that is all any reader knows: a read-write Open
// rewrites the row-layout segments older stores sealed (compact.go).
// Every seal is one protocol (finishSeal): the
// WAL rotates aside, a fresh WAL takes the appends that follow, and the
// rotated file's records are built into segments, committed and
// dropped — on a worker when the size trigger fires, on the caller for
// Seal and Close, on Open after a crash — with stripes compressed in
// parallel and never under the lock readers take. The store is read one way: RunQuery
// executes a structured Query with pushdown (the statement is lowered
// once into a plan whose compiled predicate is asked one three-valued
// question of a zone — start-time bounds plus the kinds and protocols
// present — at segment, metadata-bucket and block level: "none match"
// skips the segment or block unread, which PlanStats counts as
// TimePruned and BlocksZonePruned, and all-definite buckets answer a
// count(*) from sealed metadata alone; `ip =` routes through the Bloom
// filters, and projections touch only the stripes they name),
// and Stream yields every record in exact global append order for the
// byte-identical figure pipeline. OpenDir opens either a single store or
// a fleet directory of per-node shards behind that same read surface.
//
// Crash safety, by case. Records leave the WAL only through the frozen
// file (wal-sealing.jsonl, fsynced before the rename that creates it),
// so the write path has one chain of crash states:
//
//   - torn WAL append: the tail is truncated at the last valid line on
//     Open (recoverTail); at most the unsynced tail is lost.
//   - crash mid-seal, before the manifest commit: the manifest never
//     referenced the partial segments and the frozen WAL still extends
//     it. Open finishes the seal from the frozen file — the orphan
//     segment files are overwritten — and the active WAL, bound past
//     the frozen records, replays on top.
//   - crash after the manifest commit, before the frozen WAL is
//     removed: its base is behind the manifest, so it is stale —
//     counted, dropped, never replayed.
//   - crash mid-compaction: the records are in the legacy segments or,
//     once the manifest commits, in the new one; a read-write Open
//     removes whichever files the manifest no longer references.
//
// Binaries before this protocol reset the active WAL in place after a
// commit; a WAL they left bound behind the manifest (or one with no
// binding line at all) is recognised the same way and dropped.
//
// A sealed record is never lost, and a segment never mutated.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/parallel"
	"honeynet/internal/session"
)

// Options parameterizes a store. The zero value selects every default;
// Open validates and rejects out-of-range values rather than silently
// correcting them.
type Options struct {
	// SealBytes auto-seals the tail into segments once it holds this
	// many bytes. Zero means 16 MiB; negative disables auto-sealing
	// (Seal/Close still seal).
	SealBytes int64
	// BlockBytes is the target uncompressed block size inside sealed
	// segments — the unit of scan memory. Zero means 256 KiB; negative
	// is rejected.
	BlockBytes int
	// SyncEvery is the WAL fsync cadence. Zero means one second;
	// negative disables the periodic sync (Flush/Seal/Close still sync).
	SyncEvery time.Duration
	// MaxBatch caps how many appended records one group-commit WAL
	// write may carry. Zero means 512; negative is rejected.
	MaxBatch int
	// MaxDelay bounds how long an appended record may wait in the
	// group-commit batch before the flusher writes it to the WAL. Zero
	// means 2ms; negative is rejected.
	MaxDelay time.Duration
	// SealWorkers caps how many goroutines compress blocks during a
	// seal. Zero means GOMAXPROCS; negative is rejected.
	SealWorkers int
	// ReadOnly opens the store for querying only: no WAL truncation or
	// recovery writes, Append fails. A torn WAL tail is skipped in
	// memory instead of repaired on disk.
	ReadOnly bool
}

// Validate rejects option values outside their documented range. A
// negative SealBytes or SyncEvery is a documented sentinel (disable),
// not an error.
func (o *Options) Validate() error {
	switch {
	case o.BlockBytes < 0:
		return fmt.Errorf("store: negative BlockBytes %d", o.BlockBytes)
	case o.MaxBatch < 0:
		return fmt.Errorf("store: negative MaxBatch %d", o.MaxBatch)
	case o.MaxDelay < 0:
		return fmt.Errorf("store: negative MaxDelay %v", o.MaxDelay)
	case o.SealWorkers < 0:
		return fmt.Errorf("store: negative SealWorkers %d", o.SealWorkers)
	}
	return nil
}

func (o *Options) sealBytes() int64 {
	if o.SealBytes == 0 {
		return 16 << 20
	}
	return o.SealBytes
}

func (o *Options) blockBytes() int {
	if o.BlockBytes > 0 {
		return o.BlockBytes
	}
	return 256 << 10
}

func (o *Options) syncEvery() time.Duration {
	if o.SyncEvery == 0 {
		return time.Second
	}
	return o.SyncEvery
}

func (o *Options) maxBatch() int {
	if o.MaxBatch == 0 {
		return 512
	}
	return o.MaxBatch
}

func (o *Options) maxDelay() time.Duration {
	if o.MaxDelay == 0 {
		return 2 * time.Millisecond
	}
	return o.MaxDelay
}

// Store is an append-only, month-partitioned session store rooted at a
// directory. All methods are safe for concurrent use; queries see a
// consistent snapshot and never block appends for long.
//
// Lock order: walMu (WAL file I/O and rotation) is always acquired
// before mu (in-memory state). The group-commit flusher extracts its
// batch and a seal rotates the WAL under both; no seal holds mu while
// it builds segments.
type Store struct {
	dir  string
	opts Options

	walMu sync.Mutex // serializes WAL writes, fsyncs, and rotation

	mu        sync.RWMutex
	man       *manifest         // copy-on-write: replaced wholesale by seals
	tail      []*session.Record // unsealed records; seq = man.NextSeq + index
	tailLines [][]byte          // canonical JSON per tail record, newline-free
	lineArena []byte            // backing storage tailLines entries slice into
	tailBytes int64             // WAL bytes (lines + newlines) of the unfrozen tail
	frozen    int               // tail[:frozen] is in wal-sealing.jsonl, awaiting finishSeal
	pend      int               // tail suffix not yet written to the WAL
	pendRuns  [][]byte          // pending WAL bytes as contiguous arena runs
	pendRun   []byte            // open run in the current arena chunk
	sealing   bool              // a finishSeal is in flight
	sealCond  *sync.Cond        // on mu; broadcast when sealing flips false
	walErr    error             // sticky: a failed WAL batch write
	sealErr   error             // the last finishSeal failed; cleared by the retry that succeeds
	walF      *os.File          // active WAL; nil when ReadOnly
	walW      *bufio.Writer
	walSize   int64
	dirty     bool
	closed    bool

	kick       chan struct{} // wakes the group-commit flusher
	stop, done chan struct{} // periodic WAL sync loop
	flushDone  chan struct{} // group-commit flusher exit
	watch      chan struct{} // append signal for tailers (see Watch)

	// Seal scratch, reused across seals: at most one seal runs at a
	// time (the sealing flag serializes them), so large buffers and
	// codec tables are allocated once instead of zeroed fresh per seal.
	sealFrames []byte
	sealComps  [][]byte
	sealCodecs []*lzCodec
	sealCol    *colWriter // block builder

	sealsTotal     atomic.Int64
	sealBackground atomic.Int64
	sealBlocks     atomic.Int64
	batchFlushes   atomic.Int64
	batchRecords   atomic.Int64
	batchBytes     atomic.Int64
	blocksRead     atomic.Int64
	recoveredBytes atomic.Int64
	staleWALDrops  atomic.Int64
	appended       atomic.Int64

	step func(point string) // test hook: called at each seal boundary; nil in production
}

// at reports a boundary of the seal protocol to the test hook.
func (s *Store) at(point string) {
	if s.step != nil {
		s.step(point)
	}
}

// walHeader is the first line of the WAL: it binds the file to the
// manifest generation it extends. A WAL whose base disagrees with the
// manifest's NextSeq was already sealed and is discarded on Open.
type walHeader struct {
	Wal struct {
		Base uint64 `json:"base"`
	} `json:"_wal"`
}

// Open opens (creating if needed) the store at dir, recovering from
// any crash per the package contract.
func Open(dir string, opts Options) (*Store, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if i := slices.IndexFunc(man.Segments, (*segmentMeta).legacy); opts.ReadOnly && i >= 0 {
		return nil, fmt.Errorf("%w: %s is HNSTORE1/HNSTORE2, which only compaction reads; any read-write open "+
			"(honeypotd -store %s, for example) rewrites it as HNSTORE3", ErrLegacySegment, man.Segments[i].File, dir)
	}
	s := &Store{dir: dir, opts: opts, man: man}
	s.sealCond = sync.NewCond(&s.mu)
	s.watch = make(chan struct{}, 1)
	walPath := filepath.Join(dir, walName)
	frozenPath := filepath.Join(dir, walSealingName)

	// A rotated-aside WAL that still extends the manifest is a seal the
	// previous process did not commit: its records are the frozen prefix
	// of the tail, and the active WAL is bound past them.
	if _, _, err := s.loadWAL(frozenPath, man.NextSeq); err != nil {
		return nil, err
	}
	s.frozen = len(s.tail)
	base := man.NextSeq + uint64(s.frozen)
	size, stale, err := s.loadWAL(walPath, base)
	if err != nil {
		return nil, err
	}
	if opts.ReadOnly {
		return s, nil // repairs nothing, seals nothing
	}
	if stale {
		if err := os.Remove(walPath); err != nil {
			return nil, err
		}
	}
	for _, l := range s.tailLines[s.frozen:] {
		s.tailBytes += int64(len(l)) + 1
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.walF = f
	s.walW = bufio.NewWriterSize(f, 256<<10)
	s.walSize = size
	if size == 0 {
		err = s.writeWALHeaderLocked(base)
	}
	if err == nil && exists(frozenPath) {
		if err = s.finishSeal(false); err != nil {
			err = fmt.Errorf("store: finish interrupted seal: %w", err)
		}
	}
	if err == nil {
		s.dropOrphans()
		err = s.compact()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	s.kick = make(chan struct{}, 1)
	s.flushDone = make(chan struct{})
	s.stop = make(chan struct{})
	go s.flushLoop()
	if opts.syncEvery() > 0 {
		s.done = make(chan struct{})
		go s.syncLoop(opts.syncEvery())
	}
	return s, nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// loadWAL is the one way a WAL file comes in: repair a torn tail
// (never on a read-only open, which parses what is valid and truncates
// nothing), read the file against the sequence it must extend, and
// append its records to the tail. A file that does not extend base —
// no binding line, or bound to a sequence the manifest has moved past —
// holds records a seal already committed: it is counted, contributes
// nothing, and is never replayed.
func (s *Store) loadWAL(path string, base uint64) (size int64, stale bool, err error) {
	if !s.opts.ReadOnly {
		dropped, err := recoverTail(path)
		if err != nil {
			return 0, false, fmt.Errorf("store: recover %s: %w", filepath.Base(path), err)
		}
		s.recoveredBytes.Add(dropped)
	}
	recs, lines, stale, size, err := readWAL(path, base, s.opts.ReadOnly)
	if err != nil {
		return 0, false, err
	}
	if stale {
		s.staleWALDrops.Add(1)
	}
	s.tail = append(s.tail, recs...)
	s.tailLines = append(s.tailLines, lines...)
	return size, stale, nil
}

// recoverTail truncates path so it ends on a complete, valid JSON line
// — undoing a torn write from a crash mid-append. It returns the number
// of bytes dropped. A missing file is not an error.
func recoverTail(path string) (dropped int64, err error) {
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

// readWAL parses the WAL at path: header, then one record per line. It
// returns the records with their canonical line bytes, whether the file
// is stale relative to base, and the byte size consumed. In tolerant
// mode a torn tail ends the parse silently instead of erroring
// (read-only opens of a live store). A missing file reads as empty and
// non-stale.
func readWAL(path string, base uint64, tolerant bool) (recs []*session.Record, lines [][]byte, stale bool, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, false, 0, nil
		}
		return nil, nil, false, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	first := true
	var dec session.JSONDecoder
	for {
		line, rerr := br.ReadBytes('\n')
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) > 0 {
			if first {
				first = false
				var h walHeader
				if uerr := json.Unmarshal(trimmed, &h); uerr != nil || !bytes.HasPrefix(trimmed, []byte(`{"_wal"`)) {
					return nil, nil, true, 0, nil // headerless: not ours, or pre-seal leftover
				}
				if h.Wal.Base != base {
					return nil, nil, true, 0, nil
				}
			} else {
				r := &session.Record{}
				if uerr := dec.Decode(trimmed, r); uerr != nil {
					if tolerant {
						return recs, lines, false, size, nil
					}
					return nil, nil, false, 0, fmt.Errorf("store: corrupt wal record %d: %w", len(recs), uerr)
				}
				recs = append(recs, r)
				lines = append(lines, trimmed)
			}
		}
		size += int64(len(line))
		if rerr != nil {
			if rerr == io.EOF {
				return recs, lines, false, size, nil
			}
			return nil, nil, false, 0, rerr
		}
	}
}

// writeWALHeaderLocked writes and fsyncs the WAL binding line. Caller
// holds walMu and mu (or is still constructing the store).
func (s *Store) writeWALHeaderLocked(base uint64) error {
	var h walHeader
	h.Wal.Base = base
	line, err := json.Marshal(h)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := s.walW.Write(line); err != nil {
		return err
	}
	if err := s.walW.Flush(); err != nil {
		return err
	}
	if err := s.walF.Sync(); err != nil {
		return err
	}
	s.walSize += int64(len(line))
	return nil
}

// lineScratch pools encode buffers so Append's marshal step allocates
// nothing in steady state.
var lineScratch = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// Append adds one record. The store retains r; callers must not mutate
// it afterwards. The append is group-committed: the record enqueues in
// memory and reaches the WAL within MaxDelay (or sooner, when MaxBatch
// fills), and is durable after the next Flush, periodic sync, or seal —
// the same contract as before group commit: an idle-period crash loses
// at most SyncEvery worth of sessions.
func (s *Store) Append(r *session.Record) error {
	bp := lineScratch.Get().(*[]byte)
	line, err := session.AppendJSON((*bp)[:0], r)
	if err != nil {
		lineScratch.Put(bp)
		return fmt.Errorf("store: marshal: %w", err)
	}

	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		lineScratch.Put(bp)
		return errors.New("store: closed")
	case s.opts.ReadOnly:
		s.mu.Unlock()
		lineScratch.Put(bp)
		return errors.New("store: read-only")
	case s.walErr != nil:
		err := s.walErr
		s.mu.Unlock()
		lineScratch.Put(bp)
		return err
	case s.sealErr != nil:
		err := s.sealErr
		s.mu.Unlock()
		lineScratch.Put(bp)
		return fmt.Errorf("store: seal failed, retrying: %w", err)
	}
	sb := s.opts.sealBytes()
	// Backpressure: if appends outrun an in-flight background seal by
	// several seal units, wait for it rather than grow without bound.
	for s.sealing && sb > 0 && s.tailBytes >= 4*sb {
		s.sealCond.Wait()
		if s.closed {
			s.mu.Unlock()
			lineScratch.Put(bp)
			return errors.New("store: closed")
		}
	}
	s.tail = append(s.tail, r)
	s.tailLines = append(s.tailLines, s.internLine(line))
	s.tailBytes += int64(len(line)) + 1
	s.pend++
	kick := s.pend == 1 || s.pend == s.opts.maxBatch()
	needSeal := sb > 0 && !s.sealing && s.tailBytes >= sb
	s.mu.Unlock()
	*bp = line[:0]
	lineScratch.Put(bp)

	s.appended.Add(1)
	select {
	case s.watch <- struct{}{}:
	default:
	}
	if kick {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	if needSeal {
		s.rotateAndSealAsync()
	}
	return nil
}

// internLine copies line plus its WAL newline into the store's arena,
// so tail lines cost one allocation per arena chunk instead of one per
// record, and consecutive pending records form one contiguous byte run
// the flusher writes in a single call. Returns the newline-free line.
// Caller holds mu.
func (s *Store) internLine(line []byte) []byte {
	if cap(s.lineArena)-len(s.lineArena) < len(line)+1 {
		if len(s.pendRun) > 0 { // run cannot continue across chunks
			s.pendRuns = append(s.pendRuns, s.pendRun)
			s.pendRun = nil
		}
		size := 256 << 10
		if len(line)+1 > size {
			size = len(line) + 1
		}
		s.lineArena = make([]byte, 0, size)
	}
	off := len(s.lineArena)
	s.lineArena = append(append(s.lineArena, line...), '\n')
	if len(s.pendRun) == 0 {
		s.pendRun = s.lineArena[off:len(s.lineArena)]
	} else {
		s.pendRun = s.pendRun[:len(s.pendRun)+len(line)+1]
	}
	return s.lineArena[off : len(s.lineArena)-1 : len(s.lineArena)-1]
}

// flushLoop is the group-commit flusher: woken by the first append of a
// batch, it lingers up to MaxDelay so later appends can join, then
// writes the whole batch to the WAL in one go.
func (s *Store) flushLoop() {
	defer close(s.flushDone)
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		}
		s.mu.Lock()
		full := s.pend >= s.opts.maxBatch()
		s.mu.Unlock()
		if !full {
			t := time.NewTimer(s.opts.maxDelay())
			select {
			case <-t.C:
			case <-s.kick: // batch filled early
			case <-s.stop:
				t.Stop()
				return
			}
			t.Stop()
		}
		s.walMu.Lock()
		s.mu.Lock()
		if !s.closed {
			_ = s.drainPendingLocked()
		}
		s.mu.Unlock()
		s.walMu.Unlock()
	}
}

// drainPendingLocked writes every not-yet-written tail record to the
// WAL buffer as one batch: the pending bytes already sit newline-
// delimited in the arena, so the whole batch goes out as a handful of
// contiguous runs. Caller holds walMu and mu. On failure the error is
// sticky: the records stay in memory, queryable, but further appends
// fail rather than silently diverge from the WAL.
func (s *Store) drainPendingLocked() error {
	if s.walErr != nil {
		return s.walErr
	}
	n := s.pend
	if n == 0 {
		return nil
	}
	var wrote int64
	for _, run := range s.pendRuns {
		if _, err := s.walW.Write(run); err != nil {
			s.walErr = fmt.Errorf("store: wal write: %w", err)
			return s.walErr
		}
		wrote += int64(len(run))
	}
	if len(s.pendRun) > 0 {
		if _, err := s.walW.Write(s.pendRun); err != nil {
			s.walErr = fmt.Errorf("store: wal write: %w", err)
			return s.walErr
		}
		wrote += int64(len(s.pendRun))
	}
	// Push the batch to the OS now: one syscall per batch keeps the
	// group-commit amortization, and external ReadOnly followers (Follow,
	// hnquery -follow) observe progress without waiting for a sync or
	// seal. Durability is still governed by SyncEvery.
	if err := s.walW.Flush(); err != nil {
		s.walErr = fmt.Errorf("store: wal flush: %w", err)
		return s.walErr
	}
	s.pendRuns = s.pendRuns[:0]
	s.pendRun = nil
	s.pend = 0
	s.walSize += wrote
	s.dirty = true
	s.batchFlushes.Add(1)
	s.batchRecords.Add(int64(n))
	s.batchBytes.Add(wrote)
	return nil
}

// rotateAndSealAsync is the size trigger: rotate the WAL aside and hand
// the frozen tail to a worker that runs finishSeal off the append path.
func (s *Store) rotateAndSealAsync() {
	s.walMu.Lock()
	s.mu.Lock()
	ok := !s.closed && !s.sealing && s.sealErr == nil && s.tailBytes >= s.opts.sealBytes()
	if ok {
		ok = s.rotateLocked() == nil // a failed rotation left a sticky walErr for appends to surface
	}
	s.mu.Unlock()
	s.walMu.Unlock()
	if ok {
		go s.finishSeal(true)
	}
}

// rotateLocked freezes the current tail for finishSeal: drain the
// batch, move the active WAL aside as wal-sealing.jsonl — fully written
// and fsynced, so the frozen records are durable before the seal
// begins — and start a fresh WAL whose base skips them. Caller holds
// walMu and mu with no seal in flight and nothing frozen; on return
// tail[:frozen] is the seal's input and sealing is set.
func (s *Store) rotateLocked() error {
	fail := func(e error) error {
		s.walErr = fmt.Errorf("store: wal rotate: %w", e)
		return s.walErr
	}
	if err := s.drainPendingLocked(); err != nil {
		return err
	}
	if err := s.syncWALLocked(); err != nil {
		return fail(err)
	}
	s.at("rotate:synced")
	if err := s.walF.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(filepath.Join(s.dir, walName), filepath.Join(s.dir, walSealingName)); err != nil {
		return fail(err)
	}
	s.at("rotate:renamed")
	f, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fail(err)
	}
	s.walF = f
	s.walW.Reset(f)
	s.walSize = 0
	s.at("rotate:created")
	if err := s.writeWALHeaderLocked(s.man.NextSeq + uint64(len(s.tail))); err != nil {
		return fail(err)
	}
	s.at("rotate:bound")
	if err := syncDir(s.dir); err != nil {
		return fail(err)
	}
	s.frozen = len(s.tail)
	s.sealing = true
	s.tailBytes = 0
	s.at("rotate:done")
	return nil
}

// finishSeal is the one seal protocol, reached by the size trigger's
// worker, by Seal and Close on their caller, by the sync loop retrying
// a failed seal, and by Open over a frozen WAL a crash left: build the
// frozen records tail[:frozen] into segments, commit the manifest, swap
// the sealed prefix out of memory, remove wal-sealing.jsonl. The caller
// has set sealing under mu and does not hold mu: readers go on through
// the build. On failure nothing moves — the prefix stays frozen, its
// file stays on disk, sealErr refuses appends — so the retry is this
// function again, and a crash recovers through the same file.
func (s *Store) finishSeal(background bool) error {
	s.mu.RLock()
	man, n := s.man, s.frozen
	recs, lines := s.tail[:n], s.tailLines[:n]
	s.mu.RUnlock()
	var err error
	if n > 0 { // else only a stale frozen file is left to drop
		var newMan *manifest
		if newMan, err = s.buildSegments(man, recs, lines); err == nil {
			s.at("seal:committed")
			s.mu.Lock()
			s.man = newMan
			s.tail = append([]*session.Record(nil), s.tail[n:]...)
			s.tailLines = append([][]byte(nil), s.tailLines[n:]...)
			s.frozen = 0
			s.sealsTotal.Add(1)
			if background {
				s.sealBackground.Add(1)
			}
			s.mu.Unlock()
			s.at("seal:swapped")
		}
	}
	// sealing stays set while the frozen WAL is removed, so no rotation
	// can reuse the name mid-removal.
	if err == nil {
		if err = os.Remove(filepath.Join(s.dir, walSealingName)); os.IsNotExist(err) {
			err = nil
		}
		s.at("seal:dropped")
	}
	s.mu.Lock()
	s.sealErr = err
	s.sealing = false
	s.sealCond.Broadcast()
	s.mu.Unlock()
	return err
}

// Seal folds every record appended before the call into immutable
// per-month segments and commits them through the manifest,
// synchronously, on the caller. It waits out an in-flight seal first
// and retries a failed one. Readers are not blocked while it builds;
// appends made meanwhile stay in the tail. A no-op on an empty tail.
func (s *Store) Seal() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.opts.ReadOnly {
		return errors.New("store: closed or read-only")
	}
	return s.sealTailLocked()
}

// sealTailLocked is Seal and Close's body: wait out the seal in
// flight, finish a failed seal's frozen prefix if one stands, then
// rotate what is left of the tail aside and finish that. Caller holds
// walMu — throughout, so no other rotation can start — and mu, which is
// released around each finishSeal.
func (s *Store) sealTailLocked() error {
	for s.sealing {
		s.sealCond.Wait()
	}
	retry := s.frozen > 0 || s.sealErr != nil
	if retry {
		s.sealing = true
	} else {
		if err := s.drainPendingLocked(); err != nil {
			return err
		}
		if len(s.tail) == 0 {
			return s.syncWALLocked()
		}
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	s.mu.Unlock()
	err := s.finishSeal(false)
	s.mu.Lock()
	if err != nil || !retry {
		return err
	}
	return s.sealTailLocked() // the failed seal's prefix is committed; now the rest
}

// buildSegments writes one segment per month of recs, the records that
// extend man, and returns the manifest — already saved and durable —
// that commits them. It does not touch store state: finishSeal swaps
// the result in under mu. A failed build removes its files,
// best-effort.
func (s *Store) buildSegments(man *manifest, recs []*session.Record, lines [][]byte) (*manifest, error) {
	baseSeq := man.NextSeq
	// Partition by month (keyed year*12+month — cheaper to hash than a
	// time.Time), preserving append order within each.
	type monthRecs struct {
		recs  []*session.Record
		lines [][]byte
		seqs  []uint64
	}
	byMonth := map[int]*monthRecs{}
	var months []int
	for i, r := range recs {
		y, mo, _ := r.Start.Date()
		k := y*12 + int(mo)
		mr := byMonth[k]
		if mr == nil {
			mr = &monthRecs{}
			byMonth[k] = mr
			months = append(months, k)
		}
		mr.recs, mr.lines = append(mr.recs, r), append(mr.lines, lines[i])
		mr.seqs = append(mr.seqs, baseSeq+uint64(i))
	}
	sort.Ints(months)

	newMan := &manifest{
		Version:  manifestVersion,
		NextSeg:  man.NextSeg,
		NextSeq:  baseSeq + uint64(len(recs)),
		Segments: append([]*segmentMeta(nil), man.Segments...),
	}
	var files []string
	for _, m := range months {
		mr := byMonth[m]
		file := segFileName(newMan.NextSeg)
		meta, err := s.writeSegment(file, mr.recs, mr.lines, mr.seqs)
		if err != nil {
			removeAll(s.dir, append(files, file))
			return nil, err
		}
		newMan.NextSeg++
		newMan.Segments = append(newMan.Segments, meta)
		files = append(files, file)
	}
	if err := syncDir(s.dir); err != nil {
		removeAll(s.dir, files)
		return nil, err
	}
	s.at("seal:built")
	if err := newMan.save(s.dir); err != nil {
		removeAll(s.dir, files)
		return nil, err
	}
	// Keep seal scratch warm between seals, but not arbitrarily large:
	// a one-off huge seal should not pin its working set forever.
	if cap(s.sealFrames) > 4<<20 {
		s.sealFrames = nil
	}
	return newMan, nil
}

// removeAll deletes the named files under dir, best-effort.
func removeAll(dir string, files []string) {
	for _, f := range files {
		os.Remove(filepath.Join(dir, f))
	}
}

// Flush pushes every enqueued append to stable storage: the pending
// group-commit batch is written and the WAL fsynced.
func (s *Store) Flush() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.opts.ReadOnly {
		return nil
	}
	if err := s.drainPendingLocked(); err != nil {
		return err
	}
	return s.syncWALLocked()
}

// syncWALLocked flushes the WAL buffer and fsyncs the file. Caller
// holds walMu and mu.
func (s *Store) syncWALLocked() error {
	if err := s.walW.Flush(); err != nil {
		return err
	}
	if err := s.walF.Sync(); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// Close refuses further appends, then seals the unsealed tail the way
// Seal does — readers and metric scrapes go on while it builds — and
// releases the store. Open cursors keep working over their snapshots.
func (s *Store) Close() error {
	s.walMu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.walMu.Unlock()
		return nil
	}
	s.closed = true
	s.sealCond.Broadcast()
	var err error
	if !s.opts.ReadOnly {
		err = s.sealTailLocked()
		if cerr := s.walF.Close(); err == nil {
			err = cerr
		}
	}
	stop, done, flushDone := s.stop, s.done, s.flushDone
	s.mu.Unlock()
	s.walMu.Unlock()
	if stop != nil {
		close(stop)
		<-flushDone
		if done != nil {
			<-done
		}
	}
	return err
}

// syncLoop periodically drains the batch and fsyncs dirty WAL data, so
// an idle-period crash loses at most SyncEvery worth of sessions. The
// same tick retries a failed seal, so ingestion resumes by itself once
// the cause (a full disk, say) is gone.
func (s *Store) syncLoop(every time.Duration) {
	defer close(s.done)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.walMu.Lock()
			s.mu.Lock()
			if !s.closed && (s.dirty || s.pend > 0) {
				_ = s.drainPendingLocked()
				_ = s.syncWALLocked()
			}
			retry := !s.closed && !s.sealing && s.sealErr != nil
			if retry {
				s.sealing = true
			}
			s.mu.Unlock()
			s.walMu.Unlock()
			if retry {
				_ = s.finishSeal(false)
			}
		}
	}
}

// snapshot returns a consistent (manifest, tail) view for queries. The
// manifest is copy-on-write and the tail slice is capacity-clamped, so
// later appends and seals cannot disturb the holder.
func (s *Store) snapshot() (*manifest, []*session.Record) {
	s.mu.RLock()
	man, tail := s.man, s.tail[:len(s.tail):len(s.tail)]
	s.mu.RUnlock()
	return man, tail
}

// Len returns the total record count (sealed + unsealed).
func (s *Store) Len() int {
	man, tail := s.snapshot()
	n := len(tail)
	for _, seg := range man.Segments {
		n += seg.Records
	}
	return n
}

// Segments returns the number of sealed segment files.
func (s *Store) Segments() int {
	man, _ := s.snapshot()
	return len(man.Segments)
}

// CompressedBytes returns the total compressed size of sealed blocks.
func (s *Store) CompressedBytes() int64 {
	man, _ := s.snapshot()
	var n int64
	for _, seg := range man.Segments {
		n += seg.CompBytes
	}
	return n
}

// RecoveredBytes returns the torn-tail bytes truncated from the WAL
// when the store was opened.
func (s *Store) RecoveredBytes() int64 { return s.recoveredBytes.Load() }

// sealWorkers resolves the compression worker count for one seal.
func (s *Store) sealWorkers(blocks int) int {
	w := parallel.Workers(s.opts.SealWorkers)
	if w > blocks {
		w = blocks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Register exposes the store's counters and gauges on reg:
//
//	honeynet_store_records
//	honeynet_store_segments
//	honeynet_store_compressed_bytes
//	honeynet_store_seals_total
//	honeynet_store_seal_background_total
//	honeynet_store_seal_blocks_total
//	honeynet_store_batch_flushes_total
//	honeynet_store_batch_records_total
//	honeynet_store_batch_bytes_total
//	honeynet_store_appended_total
//	honeynet_store_blocks_read_total
//	honeynet_store_recovered_bytes
//	honeynet_store_stale_wal_drops_total
func (s *Store) Register(reg *obs.Registry) {
	reg.GaugeFunc("honeynet_store_records",
		"Session records held by the store (sealed + unsealed).",
		func() float64 { return float64(s.Len()) })
	reg.GaugeFunc("honeynet_store_segments",
		"Sealed immutable segment files in the store.",
		func() float64 { return float64(s.Segments()) })
	reg.GaugeFunc("honeynet_store_compressed_bytes",
		"Compressed bytes across all sealed segment blocks.",
		func() float64 { return float64(s.CompressedBytes()) })
	reg.CounterFunc("honeynet_store_seals_total",
		"WAL-to-segment seal operations completed.", s.sealsTotal.Load)
	reg.CounterFunc("honeynet_store_seal_background_total",
		"Seals the size trigger ran on its worker, off the append path.", s.sealBackground.Load)
	reg.CounterFunc("honeynet_store_seal_blocks_total",
		"Segment blocks compressed by seals.", s.sealBlocks.Load)
	reg.CounterFunc("honeynet_store_batch_flushes_total",
		"Group-commit batches written to the WAL.", s.batchFlushes.Load)
	reg.CounterFunc("honeynet_store_batch_records_total",
		"Records written to the WAL via group-commit batches.", s.batchRecords.Load)
	reg.CounterFunc("honeynet_store_batch_bytes_total",
		"WAL bytes written via group-commit batches.", s.batchBytes.Load)
	reg.CounterFunc("honeynet_store_appended_total",
		"Records appended to the store.", s.appended.Load)
	reg.CounterFunc("honeynet_store_blocks_read_total",
		"Compressed blocks read and verified by queries.", s.blocksRead.Load)
	reg.GaugeFunc("honeynet_store_recovered_bytes",
		"Torn-tail WAL bytes truncated away when the store was opened.",
		func() float64 { return float64(s.RecoveredBytes()) })
	reg.CounterFunc("honeynet_store_stale_wal_drops_total",
		"Stale WALs (already sealed before a crash) discarded on open.", s.staleWALDrops.Load)
}
