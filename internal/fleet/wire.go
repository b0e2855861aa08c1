// Package fleet is the honeynet's distribution tier: many honeypotd
// edge nodes stream session records to a collector over a
// dependency-free, length-prefixed wire protocol, and the collector
// writes one store shard per node that the scatter-gather query engine
// (store.OpenFleet) serves to the unchanged analysis pipeline.
//
// Delivery contract: at-least-once from the edge, exactly-once in the
// collector. Each edge's local store is its durable send queue — the
// WAL sequence doubles as the replication cursor — and the forwarder
// never ships a record that is not yet durable locally, so a kill -9
// on either side can only redeliver, never diverge. The collector
// accepts each node's records strictly in sequence order and drops
// duplicates by (nodeID, seq); a gap (a sequence from the future) is
// answered with the expected cursor so the client rewinds.
//
// Wire format, over one TCP connection per edge:
//
//	frame    := len(uint32 BE, over type+payload) | type(byte) | payload
//	hello    := JSON {"v":1,"node":"edge-1"}          client -> server
//	helloAck := JSON {"next":N}                       server -> client: resume cursor
//	batch    := uvarint base | uvarint count |        client -> server
//	            count x (uvarint len | record JSON)
//	ack      := JSON {"next":N}                       server -> client: contiguous high water
//	error    := JSON {"msg":...}, then close          server -> client
//
// Record payloads are the store's canonical JSON lines, so an edge
// forwards sealed history without re-encoding a single record.
package fleet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// ProtocolVersion is bumped on incompatible wire changes; the server
// rejects a hello whose version disagrees.
const ProtocolVersion = 1

// Frame types.
const (
	frameHello    byte = 1
	frameHelloAck byte = 2
	frameBatch    byte = 3
	frameAck      byte = 4
	frameError    byte = 5
)

// maxFrame bounds one frame (64 MiB): far above any sane batch, low
// enough that a corrupt or hostile length prefix cannot balloon memory.
const maxFrame = 64 << 20

// maxBatchBody closes a batch before its records pass 4 MiB, well under
// maxFrame, whatever the record count; a batch always takes at least
// one record.
const maxBatchBody = 4 << 20

// helloMsg opens a connection: protocol version and node identity.
type helloMsg struct {
	V    int    `json:"v"`
	Node string `json:"node"`
}

// cursorMsg carries a sequence cursor: helloAck and ack frames both
// name the next sequence the collector expects from the node.
type cursorMsg struct {
	Next uint64 `json:"next"`
}

// errMsg is the server's parting diagnostic before closing.
type errMsg struct {
	Msg string `json:"msg"`
}

// writeFrame writes one frame from up to two payload chunks (header
// and body), so a batch needs no extra copy to become contiguous.
func writeFrame(w io.Writer, typ byte, head, body []byte) error {
	n := 1 + len(head) + len(body)
	if n > maxFrame {
		return fmt.Errorf("fleet: frame of %d bytes exceeds limit", n)
	}
	var pre [5]byte
	binary.BigEndian.PutUint32(pre[:4], uint32(n))
	pre[4] = typ
	if _, err := w.Write(pre[:]); err != nil {
		return err
	}
	if len(head) > 0 {
		if _, err := w.Write(head); err != nil {
			return err
		}
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// writeJSONFrame marshals v as the frame payload.
func writeJSONFrame(w io.Writer, typ byte, v any) error {
	p, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, p, nil)
}

// maxHello bounds a connection's first frame. A hello is a version and
// a node id of at most 64 bytes, so a peer that has said nothing yet can
// make the collector read no more than this.
const maxHello = 4 << 10

// frameStep is the least a frame's buffer grows by at once.
const frameStep = 64 << 10

// readFrame reads one frame of at most limit bytes (type byte included),
// reusing *buf for the payload. The buffer grows with the bytes read,
// never ahead of them by more than what has arrived or frameStep, so a
// length prefix the peer does not follow up costs one step, not the
// length it claims; a buffer that already fits the frame is read into
// as it is.
func readFrame(r io.Reader, limit uint32, buf *[]byte) (typ byte, payload []byte, err error) {
	var pre [5]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(pre[:4])
	if n < 1 || n > limit {
		return 0, nil, fmt.Errorf("fleet: bad frame length %d", n)
	}
	typ = pre[4]
	need := int(n) - 1
	p := (*buf)[:0]
	for len(p) < need {
		p = slices.Grow(p, min(need-len(p), max(len(p), frameStep)))
		end := min(need, cap(p))
		if _, err := io.ReadFull(r, p[len(p):end]); err != nil {
			return 0, nil, err
		}
		p = p[:end]
	}
	*buf = p
	return typ, p, nil
}

// frameBuffered reports whether a whole frame already sits in br's
// buffer, so that reading it cannot block. A nonsense length prefix may
// report true; readFrame then rejects it.
func frameBuffered(br *bufio.Reader) bool {
	pre, err := br.Peek(min(4, br.Buffered()))
	if err != nil || len(pre) < 4 {
		return false
	}
	return br.Buffered()-4 >= int(binary.BigEndian.Uint32(pre))
}

// appendBatchRecord appends one record line (uvarint length + bytes)
// to a batch body under construction.
func appendBatchRecord(body, line []byte) []byte {
	body = binary.AppendUvarint(body, uint64(len(line)))
	return append(body, line...)
}

// batchHeader encodes the base sequence and record count.
func batchHeader(head []byte, base uint64, count int) []byte {
	head = binary.AppendUvarint(head[:0], base)
	return binary.AppendUvarint(head, uint64(count))
}

// parseBatch splits a batch payload into its base sequence, record
// count, and the packed record section.
func parseBatch(p []byte) (base uint64, count int, rest []byte, err error) {
	base, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("fleet: corrupt batch base")
	}
	p = p[n:]
	// count and the record lengths below are the peer's: compare them
	// as uint64 against the bytes left before converting to int. A
	// record is at least its one length byte.
	c, n := binary.Uvarint(p)
	if n <= 0 || c > uint64(len(p)-n) {
		return 0, 0, nil, fmt.Errorf("fleet: corrupt batch count")
	}
	return base, int(c), p[n:], nil
}

// nextBatchRecord pops the next record line off the packed section.
func nextBatchRecord(rest []byte) (line, remainder []byte, err error) {
	ln, n := binary.Uvarint(rest)
	if n <= 0 || ln > uint64(len(rest)-n) {
		return nil, nil, fmt.Errorf("fleet: corrupt batch record")
	}
	return rest[n : n+int(ln)], rest[n+int(ln):], nil
}
