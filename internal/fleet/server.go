package fleet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/session"
	"honeynet/internal/store"
)

// ServerOptions parameterizes a collector.
type ServerOptions struct {
	// SyncAck makes the collector flush a shard's WAL before each ack,
	// so an acknowledged record survives a collector kill -9. Off, a
	// collector crash can lose acked records — the edge keeps them
	// locally regardless (its store is never truncated), so nothing is
	// lost from the fleet, but the collector's copy lags until the
	// edges resend or operators re-sync. honeynet.Collect always sets
	// it.
	SyncAck bool
	// OnRecord, if set, observes every record once its shard has
	// accepted it: after Append returns and before the fsync that
	// SyncAck puts ahead of the ack, so a collector crash can lose a
	// record OnRecord has already seen (the edge then redelivers it to
	// the shard, and OnRecord sees it again in the new process). Within
	// one process it fires exactly once per sequence, in sequence order
	// per node — duplicates and gaps never reach it. It runs on the
	// connection's ingest goroutine with the node's ingest lock held, so
	// it must not call back into the Server; honeynet.Collect points it
	// at the live analytics pipeline.
	OnRecord func(node string, r *session.Record)
}

// maxAckGroup bounds how many batch frames one flush and one ack may
// cover: it caps both how long a batch waits for its ack behind frames
// that arrived with it and how much an edge resends if the collector
// dies before the flush.
const maxAckGroup = 8

// helloTimeout bounds how long a new connection may take to say hello.
const helloTimeout = 5 * time.Second

// nodeIngest is one node's shard plus the state every connection of
// that node shares. The shard's record count is the dedup ledger, and
// mu makes "read the ledger, append what is new" one step, so a stale
// connection still draining its read buffer and the reconnected one
// that replaced it cannot both append the same sequence.
type nodeIngest struct {
	st *store.Store

	mu      sync.Mutex // held while a batch is applied to st
	durable uint64     // every sequence below it has been flushed
	flushes int        // st.Flush calls by sendCursor; the tests read it
}

// Server is the collector: it accepts edge connections, writes one
// store shard per node under its fleet directory, and deduplicates
// at-least-once delivery by accepting each node's records strictly in
// sequence order. The shard's own record count is the dedup ledger —
// sequences are dense from zero — so a restarted collector recovers
// its per-node cursors for free by opening the shards.
type Server struct {
	dir  string
	opts ServerOptions

	ln     net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex // guards shards, conns, closed
	shards map[string]*nodeIngest
	conns  map[net.Conn]struct{}
	closed bool

	received  atomic.Int64
	dups      atomic.Int64
	gaps      atomic.Int64
	batchesIn atomic.Int64
	acksOut   atomic.Int64
	sessions  atomic.Int64
	rejected  atomic.Int64
}

// NewServer creates a collector over the fleet directory dir, stamping
// the fleet marker and opening any shards left by a previous run.
func NewServer(dir string, opts ServerOptions) (*Server, error) {
	if err := store.WriteFleetMarker(dir); err != nil {
		return nil, err
	}
	s := &Server{
		dir:    dir,
		opts:   opts,
		shards: map[string]*nodeIngest{},
		conns:  map[net.Conn]struct{}{},
	}
	nodes, err := store.FleetNodes(dir)
	if err != nil {
		return nil, err
	}
	for _, node := range nodes {
		if _, err := s.shard(node); err != nil {
			s.Close()
			return nil, fmt.Errorf("fleet: reopen shard %s: %w", node, err)
		}
	}
	return s, nil
}

// Listen binds addr and starts accepting edge connections in the
// background. The returned address is useful with ":0" listeners.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("fleet: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// shard returns (opening if needed) the ingest state for one node.
func (s *Server) shard(node string) (*nodeIngest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("fleet: server closed")
	}
	if n, ok := s.shards[node]; ok {
		return n, nil
	}
	st, err := store.Open(store.ShardDir(s.dir, node), store.Options{})
	if err != nil {
		return nil, err
	}
	// What Open recovered came off the disk.
	n := &nodeIngest{st: st, durable: st.NextSeq()}
	s.shards[node] = n
	return n, nil
}

// handle runs one edge connection: hello, resume ack, then the batch
// loop. One goroutine per connection; a node normally has one live
// connection, but after a dropped link the old handler may still be
// draining its read buffer when the reconnected one starts, so every
// batch is checked against the shard itself under the node's ingest
// lock (applyBatch) and any number of connections for one node dedup
// against one ledger.
//
// Acks are group-committed: after a batch that appended in full, a
// frame already complete in the read buffer is applied before the
// flush and the ack, up to maxAckGroup frames, so under backlog one
// fsync and one ack cover several batches; with nothing buffered every
// batch is flushed and acked on its own. A batch that did not append in
// full (duplicates, a gap) never joins a group: what is pending is
// acked first, so that its own no-progress ack still reads as no
// progress to the forwarder, whose rewind signal that is.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	var buf []byte

	// A peer that has not said hello is held to a hello's size and time,
	// and to a hello-sized read buffer.
	hr := bufio.NewReaderSize(conn, maxHello)
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	typ, payload, err := readFrame(hr, maxHello, &buf)
	if err != nil {
		s.rejected.Add(1) // over-size, past the deadline, or closed: no error frame to send
		return
	}
	bw := bufio.NewWriterSize(conn, 16<<10)
	var hello helloMsg
	if typ != frameHello || json.Unmarshal(payload, &hello) != nil {
		s.reject(bw, "expected hello frame")
		return
	}
	if hello.V != ProtocolVersion {
		s.reject(bw, fmt.Sprintf("protocol version %d unsupported (want %d)", hello.V, ProtocolVersion))
		return
	}
	if !store.ValidNodeID(hello.Node) {
		s.reject(bw, fmt.Sprintf("invalid node id %q", hello.Node))
		return
	}
	n, err := s.shard(hello.Node)
	if err != nil {
		s.reject(bw, "shard open failed")
		return
	}
	if err := s.sendCursor(n, bw, frameHelloAck, n.st.NextSeq()); err != nil {
		return
	}
	s.sessions.Add(1)
	defer s.sessions.Add(-1)

	// Batches are read through hr, so what it buffered past the hello
	// comes first; once it is drained, hr passes reads of its own size
	// or more straight to conn.
	br := bufio.NewReaderSize(hr, 256<<10)
	body := &pacedReader{r: br, conn: conn}
	dec := &session.JSONDecoder{}
	var next uint64 // node cursor after the last applied batch
	pending := 0    // earlier batches, appended in full, that the next ack will cover
	for {
		// An accepted edge may stay idle between batches for as long as
		// it has nothing to send; a frame it has begun is paced.
		if br.Buffered() == 0 {
			conn.SetReadDeadline(time.Time{})
			if _, err := br.Peek(1); err != nil {
				return
			}
		}
		body.left = 0
		typ, payload, err := readFrame(body, maxFrame, &buf)
		if err != nil {
			return
		}
		if typ != frameBatch {
			s.reject(bw, fmt.Sprintf("unexpected frame type %d", typ))
			return
		}
		s.batchesIn.Add(1)
		after, full, err := s.applyBatch(n, hello.Node, dec, payload)
		if err != nil {
			s.reject(bw, err.Error())
			return
		}
		if !full && pending > 0 {
			if err := s.sendCursor(n, bw, frameAck, next); err != nil {
				return
			}
			pending = 0
		}
		next = after
		if full && pending+1 < maxAckGroup && frameBuffered(br) {
			pending++
			continue
		}
		if err := s.sendCursor(n, bw, frameAck, next); err != nil {
			return
		}
		pending = 0
	}
}

// pacedReader holds a frame that has begun to the collector's pace:
// each frameStep bytes of it, the length prefix included, must arrive
// within helloTimeout, so a peer that trickles a frame cannot hold its
// handler and buffers for longer than the frame's size allows.
type pacedReader struct {
	r    io.Reader
	conn net.Conn
	left int // bytes the current read deadline still covers
}

func (p *pacedReader) Read(b []byte) (int, error) {
	if p.left == 0 {
		p.conn.SetReadDeadline(time.Now().Add(helloTimeout))
		p.left = frameStep
	}
	n, err := p.r.Read(b[:min(len(b), p.left)])
	p.left -= n
	return n, err
}

// applyBatch commits one batch frame to the node's shard and returns
// the node's cursor after it and whether every record of the batch was
// appended. The cursor is read from the shard under the node's ingest
// lock, not remembered per connection, and the lock is held until the
// batch is in, OnRecord calls included: that is what keeps sequences
// dense and OnRecord in sequence order however many connections feed
// the node. A returned error is the reject message for the peer.
func (s *Server) applyBatch(n *nodeIngest, node string, dec *session.JSONDecoder, payload []byte) (next uint64, full bool, err error) {
	base, count, rest, err := parseBatch(payload)
	if err != nil {
		return 0, false, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	next = n.st.NextSeq()
	full = count > 0 && base == next
	for i := 0; i < count; i++ {
		var line []byte
		if line, rest, err = nextBatchRecord(rest); err != nil {
			return 0, false, err
		}
		seq := base + uint64(i)
		switch {
		case seq < next:
			s.dups.Add(1) // already committed: at-least-once redelivery
		case seq > next:
			// A sequence from the future: drop the remainder and
			// re-state our cursor; the no-progress ack tells the
			// client to rewind (a TCP client never triggers this).
			s.gaps.Add(1)
			i = count
		default:
			r := &session.Record{}
			if err := dec.Decode(line, r); err != nil {
				return 0, false, fmt.Errorf("corrupt record at seq %d: %v", seq, err)
			}
			if err := n.st.Append(r); err != nil {
				return 0, false, errors.New("append failed")
			}
			if s.opts.OnRecord != nil {
				s.opts.OnRecord(node, r)
			}
			next++
			s.received.Add(1)
		}
	}
	return next, full, nil
}

// sendCursor states the node's cursor to the peer in a helloAck or ack
// frame. Under SyncAck the shard is flushed first unless everything
// below next already has been, so no cursor is ever stated — by this
// connection or another of the same node — ahead of what would survive
// a kill -9.
func (s *Server) sendCursor(n *nodeIngest, bw *bufio.Writer, typ byte, next uint64) error {
	if s.opts.SyncAck {
		n.mu.Lock()
		var err error
		if next > n.durable {
			// Nothing is appended while mu is held, so the flush covers
			// the shard up to its cursor now, which may be past next.
			n.flushes++
			if err = n.st.Flush(); err == nil {
				n.durable = n.st.NextSeq()
			}
		}
		n.mu.Unlock()
		if err != nil {
			s.reject(bw, "flush failed")
			return err
		}
	}
	if err := writeJSONFrame(bw, typ, cursorMsg{Next: next}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if typ == frameAck {
		s.acksOut.Add(1)
	}
	return nil
}

// reject sends a best-effort error frame before closing.
func (s *Server) reject(bw *bufio.Writer, msg string) {
	s.rejected.Add(1)
	if writeJSONFrame(bw, frameError, errMsg{Msg: msg}) == nil {
		bw.Flush()
	}
}

// Fleet returns a live scatter-gather view over the collector's
// shards. The server keeps ownership of the stores: do not Close the
// returned fleet, and take a fresh view after new nodes connect.
func (s *Server) Fleet() *store.Fleet {
	s.mu.Lock()
	defer s.mu.Unlock()
	shards := make([]store.Shard, 0, len(s.shards))
	for node, n := range s.shards {
		shards = append(shards, store.Shard{Node: node, Store: n.st})
	}
	return store.NewFleet(shards)
}

// Nodes returns how many node shards the collector holds.
func (s *Server) Nodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shards)
}

// Len returns the total record count across shards.
func (s *Server) Len() int {
	s.mu.Lock()
	shards := make([]*store.Store, 0, len(s.shards))
	for _, n := range s.shards {
		shards = append(shards, n.st)
	}
	s.mu.Unlock()
	n := 0
	for _, st := range shards {
		n += st.Len()
	}
	return n
}

// Close stops accepting, drops live connections, and closes every
// shard (sealing their tails).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	var err error
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.shards {
		if cerr := n.st.Close(); err == nil {
			err = cerr
		}
	}
	s.shards = map[string]*nodeIngest{}
	return err
}

// Register exposes the collector's counters and gauges on reg:
//
//	honeynet_fleet_received_total
//	honeynet_fleet_duplicate_total
//	honeynet_fleet_gap_total
//	honeynet_fleet_batches_received_total
//	honeynet_fleet_acks_sent_total
//	honeynet_fleet_rejects_total
//	honeynet_fleet_nodes
//	honeynet_fleet_connections
//	honeynet_fleet_collected_records
func (s *Server) Register(reg *obs.Registry) {
	reg.CounterFunc("honeynet_fleet_received_total",
		"Records accepted and appended to node shards.", s.received.Load)
	reg.CounterFunc("honeynet_fleet_duplicate_total",
		"Redelivered records dropped by sequence dedup.", s.dups.Load)
	reg.CounterFunc("honeynet_fleet_gap_total",
		"Batches dropped for skipping ahead of a node's cursor.", s.gaps.Load)
	reg.CounterFunc("honeynet_fleet_batches_received_total",
		"Batch frames received.", s.batchesIn.Load)
	reg.CounterFunc("honeynet_fleet_acks_sent_total",
		"Ack frames sent.", s.acksOut.Load)
	reg.CounterFunc("honeynet_fleet_rejects_total",
		"Connections rejected with an error frame, or closed before a hello arrived (an over-size first frame, the hello deadline, or the peer's own close).", s.rejected.Load)
	reg.GaugeFunc("honeynet_fleet_nodes",
		"Node shards held by this collector.",
		func() float64 { return float64(s.Nodes()) })
	reg.GaugeFunc("honeynet_fleet_connections",
		"Live edge connections.",
		func() float64 { return float64(s.sessions.Load()) })
	reg.GaugeFunc("honeynet_fleet_collected_records",
		"Total records across node shards.",
		func() float64 { return float64(s.Len()) })
}
