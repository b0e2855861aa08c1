package fleet

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/store"
)

// The forwarder's tuning. Every forwarder runs with these values; the
// package's own tests change some through Options.tuning.
const (
	// batchRecords caps how many records one batch frame carries.
	batchRecords = 256
	// ackWindowBatches is how many full batches may be in flight (sent
	// but not acknowledged) before the forwarder waits for acks.
	ackWindowBatches = 4
	// dialTimeout bounds one connection attempt and its hello.
	dialTimeout = 5 * time.Second
	// retryMin and retryMax bound the reconnect backoff.
	retryMin = 100 * time.Millisecond
	retryMax = 5 * time.Second
	// batchSpacing is the least time between two batches when the next
	// is not full. A partial batch leaves at once unless the previous
	// batch left less than batchSpacing ago, and then it leaves
	// batchSpacing after that one. So a record appended to an idle edge
	// goes out the moment it is seen, while under load partial batches
	// still leave at most once per spacing, each covering one edge fsync
	// and one collector fsync.
	batchSpacing = 2 * time.Millisecond
)

// Options parameterizes a Forwarder. It has no exported fields: every
// forwarder runs with the package's constants, and cmd/hnbench passes
// Options{} until ROADMAP item 1(b) retires the parameter.
type Options struct {
	tuning tuning
}

// tuning overrides the forwarder's constants in the package's tests. A
// zero field keeps its constant.
type tuning struct {
	batch              int // the ack window stays ackWindowBatches batches
	retryMin, retryMax time.Duration
	spacing            time.Duration
	// fault, if set, is called before every dial, send, and receive
	// with the operation name; a non-nil return injects that error as
	// a connection fault.
	fault func(op string) error
}

// errStopped ends the run loop when Close is called.
var errStopped = errors.New("fleet: forwarder stopped")

// Forwarder tails a node's local store and streams its records to a
// collector, batched, windowed, and resumable: the collector's hello
// acknowledgment names the sequence to resume from after any
// disconnect, and the local WAL sequence is the only cursor state.
// Records are forwarded only after they are durable locally (the
// forwarder flushes the store's WAL past the batch it is about to
// send), so a crashed-and-restarted edge can only redeliver records
// the collector deduplicates — never mint new records under sequences
// the collector has already accepted.
//
// Snapshot lifetime: a session reads the store through one
// store.SeqCursor at a time, kept across batches until it is exhausted,
// until the send cursor leaves its position (a collector rewind), or
// until the session ends — so a sealed backlog is opened and
// decompressed once per session, not once per batch. A snapshot pins
// the segments and the tail it was taken over, so none is ever held
// while the forwarder waits for new appends: an exhausted one is closed
// before the loop blocks.
type Forwarder struct {
	addr, node string
	st         *store.Store
	tune       tuning

	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	cursor  uint64 // next sequence to send
	acked   uint64 // collector-confirmed contiguous high water
	durable uint64 // WAL flushed at least this far

	connected    atomic.Bool
	sent         atomic.Int64
	batches      atomic.Int64
	flushes      atomic.Int64
	reconnects   atomic.Int64
	redelivered  atomic.Int64
	rewinds      atomic.Int64
	lastErr      atomic.Value // string
	ackedMetric  atomic.Int64
	helloLatency atomic.Int64 // ns of the last successful hello round trip
}

// NewForwarder starts forwarding st's records to the collector at
// addr, identifying as node. It returns immediately; connection
// management (dial, backoff, resume) runs in the background until
// Close.
func NewForwarder(addr, node string, st *store.Store, opts Options) (*Forwarder, error) {
	if !store.ValidNodeID(node) {
		return nil, fmt.Errorf("fleet: invalid node id %q", node)
	}
	t := opts.tuning
	t.batch = cmp.Or(t.batch, batchRecords)
	t.retryMin = cmp.Or(t.retryMin, retryMin)
	t.retryMax = cmp.Or(t.retryMax, retryMax)
	t.spacing = cmp.Or(t.spacing, batchSpacing)
	f := &Forwarder{
		addr: addr, node: node, st: st, tune: t,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go f.run()
	return f, nil
}

// run dials, streams, and redials with exponential backoff until Close.
func (f *Forwarder) run() {
	defer close(f.done)
	backoff := f.tune.retryMin
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		established, err := f.session()
		f.connected.Store(false)
		if err == errStopped {
			return
		}
		if err != nil {
			f.lastErr.Store(err.Error())
		}
		if established {
			backoff = f.tune.retryMin
		}
		f.reconnects.Add(1)
		t := time.NewTimer(backoff)
		select {
		case <-f.stop:
			t.Stop()
			return
		case <-t.C:
		}
		if backoff *= 2; backoff > f.tune.retryMax {
			backoff = f.tune.retryMax
		}
	}
}

// fault runs the injection hook, if any.
func (f *Forwarder) fault(op string) error {
	if f.tune.fault == nil {
		return nil
	}
	return f.tune.fault(op)
}

// session runs one connection lifetime: hello/resume handshake, then
// the batching send loop, with a reader goroutine applying acks. It
// returns whether the handshake completed (resets the backoff).
func (f *Forwarder) session() (established bool, err error) {
	if err := f.fault("dial"); err != nil {
		return false, err
	}
	conn, err := net.DialTimeout("tcp", f.addr, dialTimeout)
	if err != nil {
		return false, err
	}
	defer conn.Close()

	start := time.Now()
	bw := bufio.NewWriterSize(conn, 256<<10)
	if err := writeJSONFrame(bw, frameHello, helloMsg{V: ProtocolVersion, Node: f.node}); err != nil {
		return false, err
	}
	if err := bw.Flush(); err != nil {
		return false, err
	}
	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	var rbuf []byte
	typ, payload, err := readFrame(br, maxFrame, &rbuf)
	if err != nil {
		return false, err
	}
	resume, err := parseCursorFrame(typ, payload, frameHelloAck)
	if err != nil {
		return false, err
	}
	conn.SetReadDeadline(time.Time{})
	f.helloLatency.Store(int64(time.Since(start)))

	f.mu.Lock()
	if resume < f.cursor {
		f.redelivered.Add(int64(f.cursor - resume))
	}
	f.cursor = resume
	if resume > f.acked {
		f.acked = resume
	}
	f.ackedMetric.Store(int64(f.acked))
	f.mu.Unlock()
	f.connected.Store(true)

	// Reader: applies acks (and collector-commanded rewinds) until the
	// connection dies; ackCh nudges the send loop's window wait.
	// readerErr is written before readerDone closes, so any reader of
	// the closed channel sees it race-free.
	ackCh := make(chan struct{}, 1)
	readerDone := make(chan struct{})
	var readerErr error
	go func() {
		defer close(readerDone)
		var buf []byte
		prev := resume
		for {
			if err := f.fault("recv"); err != nil {
				conn.Close()
				readerErr = err
				return
			}
			typ, payload, err := readFrame(br, maxFrame, &buf)
			if err != nil {
				readerErr = err
				return
			}
			next, err := parseCursorFrame(typ, payload, frameAck)
			if err != nil {
				conn.Close()
				readerErr = err
				return
			}
			f.mu.Lock()
			if next > f.acked {
				f.acked = next
			}
			// A no-progress ack while our cursor is ahead means the
			// collector saw a sequence gap and is re-stating its cursor:
			// rewind and resend. A normal in-flight ack always advances
			// past the previous one, so it never trips this.
			if next == prev && next < f.cursor {
				f.rewinds.Add(1)
				f.redelivered.Add(int64(f.cursor - next))
				f.cursor = next
			}
			prev = next
			f.ackedMetric.Store(int64(f.acked))
			f.mu.Unlock()
			select {
			case ackCh <- struct{}{}:
			default:
			}
		}
	}()

	err = f.sendLoop(conn, bw, ackCh, readerDone, &readerErr)
	conn.Close()
	<-readerDone
	if err == nil {
		err = readerErr
	}
	return true, err
}

// sendLoop batches available records and streams them, respecting the
// ack window and the batch spacing.
func (f *Forwarder) sendLoop(conn net.Conn, bw *bufio.Writer, ackCh chan struct{}, readerDone chan struct{}, readerErr *error) error {
	watch := f.st.Watch()
	var head, body []byte
	// snap is the open store snapshot, positioned at sequence snapAt; it
	// outlives a batch so a backlog is decoded once, not once per batch.
	var snap *store.SeqCursor
	var snapAt uint64
	closeSnap := func() {
		if snap != nil {
			snap.Close()
			snap = nil
		}
	}
	defer closeSnap()
	var lastSent time.Time // when the previous batch went out
	for {
		select {
		case <-f.stop:
			return errStopped
		case <-readerDone:
			return *readerErr
		default:
		}

		f.mu.Lock()
		cursor, acked := f.cursor, f.acked
		f.mu.Unlock()
		avail := int64(f.st.NextSeq()) - int64(cursor)

		if avail <= 0 {
			closeSnap() // never pin a snapshot across a wait for appends
			select {
			case <-f.stop:
				return errStopped
			case <-readerDone:
				return *readerErr
			case <-watch:
			}
			continue
		}

		// A partial batch waits only for the spacing after the previous
		// one, filling from whatever is appended meanwhile.
		if int(avail) < f.tune.batch {
			if wait := time.Until(lastSent.Add(f.tune.spacing)); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-f.stop:
					t.Stop()
					return errStopped
				case <-readerDone:
					t.Stop()
					return *readerErr
				case <-watch:
					t.Stop()
					continue
				case <-t.C:
				}
			}
		}

		// Window: wait for acks while a full batch would overshoot.
		if int(cursor-acked)+f.tune.batch > ackWindowBatches*f.tune.batch {
			select {
			case <-f.stop:
				return errStopped
			case <-readerDone:
				return *readerErr
			case <-ackCh:
			}
			continue
		}

		// Assemble one batch from the open snapshot. A new one is taken
		// only when a collector rewind moved the cursor off its position
		// or it ran out, and then the batch goes on filling from what
		// was appended since.
		if snapAt != cursor {
			closeSnap()
		}
		count := 0
		body = body[:0]
		for count < f.tune.batch {
			if snap == nil {
				snap = f.st.ScanSeq(cursor + uint64(count))
			}
			if snap.Next() {
				if snap.Seq() != cursor+uint64(count) {
					return fmt.Errorf("fleet: store sequence jumped to %d at cursor %d", snap.Seq(), cursor)
				}
				line := snap.Line()
				if count > 0 && len(body)+len(line) > maxBatchBody {
					// The record opens the next batch, which rescans
					// from it.
					closeSnap()
					break
				}
				body = appendBatchRecord(body, line)
				count++
				continue
			}
			err := snap.Err()
			closeSnap()
			if err != nil {
				return err
			}
			if f.st.NextSeq() <= cursor+uint64(count) {
				break
			}
		}
		snapAt = cursor + uint64(count)
		if count == 0 {
			continue
		}

		// Never forward past the local durability horizon: a record
		// the collector accepts must survive our own kill -9.
		top := cursor + uint64(count)
		f.mu.Lock()
		durable := f.durable
		f.mu.Unlock()
		if top > durable {
			target := f.st.NextSeq()
			if err := f.st.Flush(); err != nil {
				return fmt.Errorf("fleet: flush before forward: %w", err)
			}
			f.flushes.Add(1)
			f.mu.Lock()
			if target > f.durable {
				f.durable = target
			}
			f.mu.Unlock()
		}

		if err := f.fault("send"); err != nil {
			return err
		}
		head = batchHeader(head, cursor, count)
		if err := writeFrame(bw, frameBatch, head, body); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		lastSent = time.Now()
		f.sent.Add(int64(count))
		f.batches.Add(1)
		f.mu.Lock()
		// A collector rewind may have moved the cursor while we
		// assembled; only advance forward from what we actually sent.
		if f.cursor == cursor {
			f.cursor = top
		}
		f.mu.Unlock()
	}
}

// parseCursorFrame decodes a helloAck or ack frame, surfacing server
// error frames as errors.
func parseCursorFrame(typ byte, payload []byte, want byte) (uint64, error) {
	switch typ {
	case want:
		var m cursorMsg
		if err := json.Unmarshal(payload, &m); err != nil {
			return 0, fmt.Errorf("fleet: corrupt cursor frame: %w", err)
		}
		return m.Next, nil
	case frameError:
		var m errMsg
		_ = json.Unmarshal(payload, &m)
		return 0, fmt.Errorf("fleet: collector rejected connection: %s", m.Msg)
	default:
		return 0, fmt.Errorf("fleet: unexpected frame type %d (want %d)", typ, want)
	}
}

// Lag returns how many local records the collector has not yet
// acknowledged.
func (f *Forwarder) Lag() uint64 {
	next := f.st.NextSeq()
	f.mu.Lock()
	acked := f.acked
	f.mu.Unlock()
	if next <= acked {
		return 0
	}
	return next - acked
}

// Acked returns the collector-confirmed contiguous sequence high water.
func (f *Forwarder) Acked() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.acked
}

// Connected reports whether a collector session is currently live.
func (f *Forwarder) Connected() bool { return f.connected.Load() }

// WaitCaughtUp blocks until the collector has acknowledged every
// record the store held when the call was made, or the timeout
// elapses. It reports whether the target was reached.
func (f *Forwarder) WaitCaughtUp(timeout time.Duration) bool {
	target := f.st.NextSeq()
	deadline := time.Now().Add(timeout)
	for {
		if f.Acked() >= target {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close stops forwarding and waits for the background loop to exit.
// The local store is untouched: it remains the durable queue, and a
// future forwarder resumes from the collector's cursor.
func (f *Forwarder) Close() error {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	<-f.done
	return nil
}

// Register exposes the forwarder's counters and gauges on reg:
//
//	honeynet_fleet_forward_sent_total
//	honeynet_fleet_forward_batches_total
//	honeynet_fleet_forward_flushes_total
//	honeynet_fleet_forward_acked_seq
//	honeynet_fleet_forward_lag
//	honeynet_fleet_forward_redelivered_total
//	honeynet_fleet_forward_rewinds_total
//	honeynet_fleet_forward_reconnects_total
//	honeynet_fleet_forward_connected
func (f *Forwarder) Register(reg *obs.Registry) {
	reg.CounterFunc("honeynet_fleet_forward_sent_total",
		"Records sent to the collector (including redeliveries).", f.sent.Load)
	reg.CounterFunc("honeynet_fleet_forward_batches_total",
		"Batch frames sent to the collector.", f.batches.Load)
	reg.CounterFunc("honeynet_fleet_forward_flushes_total",
		"WAL flushes forced so no record is forwarded before it is durable.", f.flushes.Load)
	reg.GaugeFunc("honeynet_fleet_forward_acked_seq",
		"Collector-acknowledged contiguous sequence high water.",
		func() float64 { return float64(f.ackedMetric.Load()) })
	reg.GaugeFunc("honeynet_fleet_forward_lag",
		"Local records not yet acknowledged by the collector.",
		func() float64 { return float64(f.Lag()) })
	reg.CounterFunc("honeynet_fleet_forward_redelivered_total",
		"Records re-sent after reconnects or collector rewinds.", f.redelivered.Load)
	reg.CounterFunc("honeynet_fleet_forward_rewinds_total",
		"Collector-commanded cursor rewinds (sequence gaps).", f.rewinds.Load)
	reg.CounterFunc("honeynet_fleet_forward_reconnects_total",
		"Connection attempts after the first.", f.reconnects.Load)
	reg.GaugeFunc("honeynet_fleet_forward_connected",
		"1 while a collector session is live.",
		func() float64 {
			if f.connected.Load() {
				return 1
			}
			return 0
		})
}
