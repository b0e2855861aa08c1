// Package store is the honeynet's embedded, time-partitioned session
// database: the subsystem that lets the same binaries run at the
// paper's production scale (635M sessions over 33 months), bounded by
// disk instead of memory.
//
// Writers append records to a crash-safe WAL (plain JSONL with the
// sessionlog torn-tail recovery contract). Appends are group-committed:
// records enqueue in memory and a latency-bounded flusher amortizes one
// WAL write over a whole batch (Options.MaxBatch/MaxDelay), fsynced on
// the SyncEvery cadence. Sealing folds the WAL into immutable per-month
// segment files — columnar blocks of per-field compressed stripes
// behind a block directory, with a block index, per-segment time
// bounds, kind/protocol counts, and a Bloom filter over client IPs —
// committed through an atomically renamed, fsynced manifest. Segments
// are sealed in one format (HNSTORE3); the row-layout segments older
// stores hold (HNSTORE1, HNSTORE2) are read in place and never written.
// Auto-sealing runs in the background: the WAL rotates aside and a
// worker compresses stripes in parallel while appends continue into a
// fresh WAL. The store is read one way: RunQuery executes a structured
// Query with pushdown (the statement is lowered once into a plan whose
// compiled predicate is asked one three-valued question of a zone —
// start-time bounds plus the kinds and protocols present — at segment,
// metadata-bucket and block level: "none match" skips the segment or
// block unread, which PlanStats counts as TimePruned and
// BlocksZonePruned, and all-definite buckets answer a count(*) from
// sealed metadata alone; `ip =` routes through the Bloom filters, and
// projections touch only the stripes they name),
// and Stream yields every record in exact global append order for the
// byte-identical figure pipeline. OpenDir opens either a single store or
// a fleet directory of per-node shards behind that same read surface.
//
// Crash safety, by case:
//
//   - torn WAL append: the tail is truncated at the last valid line on
//     Open (sessionlog.RecoverTail); at most the unsynced tail is lost.
//   - crash mid-seal, before the manifest commit: the manifest never
//     referenced the partial segment; the WAL still holds every record
//     and the orphan file is overwritten by the retried seal. For a
//     background seal the rotated-aside WAL (wal-sealing.jsonl, fsynced
//     at rotation) holds the records; Open finishes the seal from it.
//   - crash after the manifest commit, before the WAL reset: the WAL's
//     base sequence no longer matches the manifest, so the now-stale
//     WAL is discarded instead of replaying duplicates.
//
// A sealed segment is never lost or mutated.
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/parallel"
	"honeynet/internal/session"
	"honeynet/internal/sessionlog"
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
// batch and the sealer rotates the WAL under both.
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
	frozen    int               // tail[:frozen] belongs to the in-flight background seal
	pend      int               // tail suffix not yet written to the WAL
	pendRuns  [][]byte          // pending WAL bytes as contiguous arena runs
	pendRun   []byte            // open run in the current arena chunk
	sealing   bool              // a background seal is in flight
	sealCond  *sync.Cond        // on mu; broadcast when sealing flips false
	walErr    error             // sticky: a failed WAL batch write
	sealErr   error             // sticky: a failed background seal (a later Seal may clear it)
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
	// time (the sealing flag serializes background seals; Seal/Close
	// run inline only after waiting it out under mu), so large buffers
	// and codec tables are allocated once instead of zeroed fresh per
	// seal.
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
	s := &Store{dir: dir, opts: opts, man: man}
	s.sealCond = sync.NewCond(&s.mu)
	s.watch = make(chan struct{}, 1)
	walPath := filepath.Join(dir, walName)
	frozenPath := filepath.Join(dir, walSealingName)

	if opts.ReadOnly {
		// Tolerant reads: parse what is valid, truncate nothing. A
		// non-stale rotated-aside WAL is the frozen prefix of the tail.
		base := man.NextSeq
		frozenRecs, _, stale, _, err := readWAL(frozenPath, base, true)
		if err != nil {
			return nil, err
		}
		if stale && exists(frozenPath) {
			s.staleWALDrops.Add(1)
			frozenRecs = nil
		}
		base += uint64(len(frozenRecs))
		tail, _, stale, _, err := readWAL(walPath, base, true)
		if err != nil {
			return nil, err
		}
		if stale && exists(walPath) {
			s.staleWALDrops.Add(1)
			tail = nil
		}
		s.tail = append(frozenRecs, tail...)
		return s, nil
	}

	// A rotated-aside WAL is a background seal the previous process
	// did not finish (or had already committed). Settle it first.
	if exists(frozenPath) {
		if err := s.recoverFrozenWAL(frozenPath); err != nil {
			return nil, err
		}
	}

	dropped, err := sessionlog.RecoverTail(walPath)
	if err != nil {
		return nil, fmt.Errorf("store: recover wal: %w", err)
	}
	s.recoveredBytes.Store(dropped)
	tail, lines, stale, size, err := readWAL(walPath, s.man.NextSeq, false)
	if err != nil {
		return nil, err
	}
	if stale {
		// The previous process crashed between the manifest commit and
		// the WAL reset: every WAL record is already in a sealed
		// segment. Replaying it would duplicate data — drop it.
		s.staleWALDrops.Add(1)
		if err := os.Remove(walPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		tail, lines, size = nil, nil, 0
	}
	s.tail = tail
	s.tailLines = lines
	for _, l := range lines {
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
		if err := s.writeWALHeaderLocked(s.man.NextSeq); err != nil {
			f.Close()
			return nil, err
		}
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

// recoverFrozenWAL settles a wal-sealing.jsonl left by a crashed
// background seal: if its base matches the manifest the seal never
// committed — finish it here (write the segments, commit the manifest);
// if the base is behind, the seal committed and the file is stale.
// Either way the file is gone when this returns.
func (s *Store) recoverFrozenWAL(path string) error {
	if _, err := sessionlog.RecoverTail(path); err != nil {
		return fmt.Errorf("store: recover frozen wal: %w", err)
	}
	recs, lines, stale, _, err := readWAL(path, s.man.NextSeq, false)
	if err != nil {
		return err
	}
	if stale {
		s.staleWALDrops.Add(1)
	} else if len(recs) > 0 {
		newMan, err := s.buildSegments(s.man, recs, lines, s.man.NextSeq)
		if err != nil {
			return fmt.Errorf("store: finish interrupted seal: %w", err)
		}
		s.man = newMan
		s.sealsTotal.Add(1)
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return syncDir(s.dir)
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
		return fmt.Errorf("store: background seal failed (Seal may retry): %w", err)
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

// rotateAndSealAsync freezes the current tail for a background seal:
// drain the batch, fsync and rotate the WAL aside, start a fresh WAL
// whose base skips the frozen records, and hand the frozen tail to a
// worker that compresses and commits it off the append path.
func (s *Store) rotateAndSealAsync() {
	s.walMu.Lock()
	s.mu.Lock()
	if s.closed || s.sealing || s.walErr != nil || s.sealErr != nil ||
		len(s.tail) == 0 || s.tailBytes < s.opts.sealBytes() {
		s.mu.Unlock()
		s.walMu.Unlock()
		return
	}
	recs, lines, baseSeq, man, err := s.rotateLocked()
	s.mu.Unlock()
	s.walMu.Unlock()
	if err != nil {
		return // sticky walErr set; appends will surface it
	}
	go s.runSeal(man, recs, lines, baseSeq)
}

// rotateLocked moves the active WAL aside as wal-sealing.jsonl — fully
// written and fsynced, so the frozen records are durable before the
// seal begins — and starts a fresh WAL whose base accounts for them.
// Caller holds walMu and mu; on return tail[:frozen] is the seal's
// input and the returned slices alias it (immutable until the commit
// swaps them out).
func (s *Store) rotateLocked() (recs []*session.Record, lines [][]byte, baseSeq uint64, man *manifest, err error) {
	fail := func(e error) ([]*session.Record, [][]byte, uint64, *manifest, error) {
		s.walErr = fmt.Errorf("store: wal rotate: %w", e)
		return nil, nil, 0, nil, s.walErr
	}
	if err := s.drainPendingLocked(); err != nil {
		return nil, nil, 0, nil, err
	}
	if err := s.walW.Flush(); err != nil {
		return fail(err)
	}
	if err := s.walF.Sync(); err != nil {
		return fail(err)
	}
	if err := s.walF.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(filepath.Join(s.dir, walName), filepath.Join(s.dir, walSealingName)); err != nil {
		return fail(err)
	}
	f, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fail(err)
	}
	s.walF = f
	s.walW.Reset(f)
	s.walSize = 0
	s.dirty = false
	s.frozen = len(s.tail)
	s.sealing = true
	s.tailBytes = 0
	if err := s.writeWALHeaderLocked(s.man.NextSeq + uint64(s.frozen)); err != nil {
		s.frozen = 0
		s.sealing = false
		return fail(err)
	}
	if err := syncDir(s.dir); err != nil {
		s.frozen = 0
		s.sealing = false
		return fail(err)
	}
	return s.tail[:s.frozen], s.tailLines[:s.frozen], s.man.NextSeq, s.man, nil
}

// runSeal is the background seal worker: it compresses the frozen tail
// into segments (blocks in parallel), commits the manifest, and swaps
// the sealed prefix out of memory. On failure the error is sticky and
// the frozen WAL stays on disk: a later Seal retries inline, and a
// crash recovers through the frozen-WAL chain.
func (s *Store) runSeal(man *manifest, recs []*session.Record, lines [][]byte, baseSeq uint64) {
	newMan, err := s.buildSegments(man, recs, lines, baseSeq)
	if err != nil {
		s.mu.Lock()
		s.sealErr = err
		s.sealing = false
		s.frozen = 0 // tail[:frozen] is still unsealed tail; seqs are unchanged
		s.sealCond.Broadcast()
		s.mu.Unlock()
		return
	}
	s.mu.Lock()
	s.man = newMan
	s.tail = append([]*session.Record(nil), s.tail[s.frozen:]...)
	s.tailLines = append([][]byte(nil), s.tailLines[s.frozen:]...)
	s.frozen = 0
	s.sealsTotal.Add(1)
	s.sealBackground.Add(1)
	// Keep `sealing` set while the frozen WAL is removed, so no new
	// rotation can reuse the name mid-removal.
	s.mu.Unlock()
	err = os.Remove(filepath.Join(s.dir, walSealingName))
	s.mu.Lock()
	if err != nil && !os.IsNotExist(err) {
		s.sealErr = err
	}
	s.sealing = false
	s.sealCond.Broadcast()
	s.mu.Unlock()
}

// Seal folds every unsealed record into immutable per-month segments
// and commits them through the manifest, synchronously: when it
// returns, the tail is empty. It waits out any in-flight background
// seal first, and retries the work of a failed one. A no-op on an
// empty tail.
func (s *Store) Seal() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.opts.ReadOnly {
		return errors.New("store: closed or read-only")
	}
	for s.sealing {
		s.sealCond.Wait()
	}
	if s.closed {
		return errors.New("store: closed")
	}
	return s.sealLocked()
}

// sealLocked seals the whole tail inline. Caller holds walMu and mu,
// with no background seal in flight. It also completes the recovery
// from a failed background seal: the frozen WAL file (if any) is
// removed once its records are committed, and sealErr is cleared.
func (s *Store) sealLocked() error {
	if err := s.drainPendingLocked(); err != nil {
		return err
	}
	if err := s.syncWALLocked(); err != nil {
		return err
	}
	if len(s.tail) == 0 {
		return nil
	}
	newMan, err := s.buildSegments(s.man, s.tail, s.tailLines, s.man.NextSeq)
	if err != nil {
		return err
	}

	// The manifest now owns the records: reset the WAL under the new
	// base. A crash before this point replays the WAL (and the frozen
	// WAL, if a failed background seal left one); after the manifest
	// commit, leftover WALs are detected as stale and dropped.
	if err := s.walF.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.walF = f
	s.walW.Reset(f)
	s.walSize = 0
	s.dirty = false
	s.man = newMan
	s.tail = nil // cursors holding the old tail keep their snapshot
	s.tailLines = nil
	s.lineArena = nil
	s.tailBytes = 0
	s.sealsTotal.Add(1)
	if s.sealErr != nil { // the failed background seal's records are now committed
		s.sealErr = nil
		if err := os.Remove(filepath.Join(s.dir, walSealingName)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return s.writeWALHeaderLocked(newMan.NextSeq)
}

// buildSegments writes one segment per month of recs (seqs start at
// baseSeq) and returns the manifest — already saved and durable — that
// commits them. It does not touch store state: callers swap the result
// in under mu.
func (s *Store) buildSegments(man *manifest, recs []*session.Record, lines [][]byte, baseSeq uint64) (*manifest, error) {
	// Partition by month (keyed year*12+month — cheaper to hash than a
	// time.Time), preserving append order within each.
	byMonth := map[int][]int32{}
	var months []int
	for i, r := range recs {
		y, mo, _ := r.Start.Date()
		k := y*12 + int(mo)
		if _, ok := byMonth[k]; !ok {
			months = append(months, k)
		}
		byMonth[k] = append(byMonth[k], int32(i))
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
		file := segFileName(newMan.NextSeg)
		meta, err := s.writeSegment(file, recs, lines, byMonth[m], baseSeq)
		if err != nil {
			removeAll(s.dir, files, file)
			return nil, err
		}
		newMan.NextSeg++
		newMan.Segments = append(newMan.Segments, meta)
		files = append(files, file)
	}
	if err := syncDir(s.dir); err != nil {
		removeAll(s.dir, files, "")
		return nil, err
	}
	if err := newMan.save(s.dir); err != nil {
		removeAll(s.dir, files, "")
		return nil, err
	}
	// Keep seal scratch warm between seals, but not arbitrarily large:
	// a one-off huge seal should not pin its working set forever.
	if cap(s.sealFrames) > 4<<20 {
		s.sealFrames = nil
	}
	return newMan, nil
}

// removeAll deletes the named segment files plus one extra (a partial
// write), best-effort, after a failed seal.
func removeAll(dir string, files []string, extra string) {
	if extra != "" {
		files = append(files, extra)
	}
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

// Close seals any unsealed tail and releases the store. Further
// appends fail; open cursors keep working over their snapshots.
func (s *Store) Close() error {
	s.walMu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.walMu.Unlock()
		return nil
	}
	var err error
	if !s.opts.ReadOnly {
		for s.sealing {
			s.sealCond.Wait()
		}
		err = s.sealLocked()
		if cerr := s.walF.Close(); err == nil {
			err = cerr
		}
	}
	s.closed = true
	s.sealCond.Broadcast()
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

// syncLoop periodically drains the batch and fsyncs dirty WAL data,
// mirroring sessionlog: an idle-period crash loses at most SyncEvery
// worth of sessions.
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
			s.mu.Unlock()
			s.walMu.Unlock()
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
		"Seals completed by the background worker, off the append path.", s.sealBackground.Load)
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
