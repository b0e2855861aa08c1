package sshwire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Channel-layer defaults.
const (
	defaultWindow    = 2 * 1024 * 1024
	defaultMaxPacket = 32 * 1024
)

// ErrMuxClosed is returned by mux operations after the connection ended.
var ErrMuxClosed = errors.New("sshwire: connection closed")

// Mux multiplexes SSH channels (RFC 4254) over an established transport
// Conn. It owns the read side of the Conn: after NewMux, callers must not
// call Conn.ReadPacket themselves.
type Mux struct {
	conn *Conn

	incoming chan *NewChannel

	mu       sync.Mutex
	channels map[uint32]*Channel
	nextID   uint32
	err      error
	done     chan struct{}

	// GlobalRequests receives RFC 4254 global requests ("tcpip-forward"
	// and friends). The mux replies failure automatically when the
	// channel is full or unread; honeypots typically just observe these.
	globalReqs chan GlobalRequest
}

// GlobalRequest is an RFC 4254 section 4 global request.
type GlobalRequest struct {
	Type      string
	WantReply bool
	Payload   []byte
}

// NewMux starts multiplexing channels over c. The returned Mux runs a
// background read loop until the connection fails or closes.
func NewMux(c *Conn) *Mux {
	m := &Mux{
		conn:       c,
		incoming:   make(chan *NewChannel, 16),
		channels:   make(map[uint32]*Channel),
		done:       make(chan struct{}),
		globalReqs: make(chan GlobalRequest, 16),
	}
	go m.loop()
	return m
}

// Incoming returns the stream of channel-open requests from the peer.
// The channel is closed when the connection ends.
func (m *Mux) Incoming() <-chan *NewChannel { return m.incoming }

// GlobalRequests returns observed global requests.
func (m *Mux) GlobalRequests() <-chan GlobalRequest { return m.globalReqs }

// Wait blocks until the mux read loop exits and returns its error.
// io.EOF indicates a clean connection teardown.
func (m *Mux) Wait() error {
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Close tears down the connection and all channels.
func (m *Mux) Close() error { return m.conn.Close() }

// Conn returns the underlying transport connection.
func (m *Mux) Conn() *Conn { return m.conn }

func (m *Mux) registerLocal(ch *Channel) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.nextID
	m.nextID++
	m.channels[id] = ch
	return id
}

func (m *Mux) lookup(id uint32) *Channel {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.channels[id]
}

func (m *Mux) forget(id uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.channels, id)
}

// OpenChannel opens a channel of the given type to the peer (client use).
func (m *Mux) OpenChannel(name string, extra []byte) (*Channel, error) {
	ch := newChannel(m, defaultWindow)
	ch.localID = m.registerLocal(ch)

	b := NewBuilder(64 + len(extra))
	b.Byte(MsgChannelOpen)
	b.StringS(name)
	b.Uint32(ch.localID)
	b.Uint32(defaultWindow)
	b.Uint32(defaultMaxPacket)
	b.Raw(extra)
	if err := m.conn.WritePacket(b.Bytes()); err != nil {
		m.forget(ch.localID)
		return nil, err
	}
	select {
	case <-ch.opened:
	case <-m.done:
		return nil, m.Wait()
	}
	if ch.openErr != nil {
		m.forget(ch.localID)
		return nil, ch.openErr
	}
	return ch, nil
}

// OpenChannelError reports a peer's rejection of a channel open.
type OpenChannelError struct {
	Reason  uint32
	Message string
}

// Error implements the error interface.
func (e *OpenChannelError) Error() string {
	return fmt.Sprintf("sshwire: channel open rejected (reason %d): %s", e.Reason, e.Message)
}

// NewChannel is a channel-open request from the peer, awaiting Accept or
// Reject.
type NewChannel struct {
	mux       *Mux
	ChanType  string
	ExtraData []byte

	remoteID        uint32
	remoteWindow    uint32
	remoteMaxPacket uint32
}

// Accept confirms the channel open and returns the live channel.
func (nc *NewChannel) Accept() (*Channel, error) {
	ch := newChannel(nc.mux, defaultWindow)
	ch.remoteID = nc.remoteID
	ch.remoteWindow = uint64(nc.remoteWindow)
	ch.remoteMaxPacket = nc.remoteMaxPacket
	ch.localID = nc.mux.registerLocal(ch)

	b := NewBuilder(24)
	b.Byte(MsgChannelOpenConfirmation)
	b.Uint32(nc.remoteID)
	b.Uint32(ch.localID)
	b.Uint32(defaultWindow)
	b.Uint32(defaultMaxPacket)
	if err := nc.mux.conn.WritePacket(b.Bytes()); err != nil {
		nc.mux.forget(ch.localID)
		return nil, err
	}
	return ch, nil
}

// Reject declines the channel open.
func (nc *NewChannel) Reject(reason uint32, message string) error {
	b := NewBuilder(24 + len(message))
	b.Byte(MsgChannelOpenFailure)
	b.Uint32(nc.remoteID)
	b.Uint32(reason)
	b.StringS(message)
	b.StringS("")
	return nc.mux.conn.WritePacket(b.Bytes())
}

// Request is a channel request ("exec", "shell", "pty-req", ...).
type Request struct {
	Type      string
	WantReply bool
	Payload   []byte

	ch *Channel
}

// Reply answers the request if the peer asked for a reply.
func (r *Request) Reply(ok bool) error {
	if !r.WantReply {
		return nil
	}
	msg := byte(MsgChannelSuccess)
	if !ok {
		msg = MsgChannelFailure
	}
	return r.ch.mux.conn.WritePacket(r.ch.msg(msg))
}

// Channel is an established SSH channel. Read returns peer data; Write
// sends data to the peer, respecting the peer's flow-control window.
type Channel struct {
	mux *Mux

	localID  uint32
	remoteID uint32

	opened  chan struct{}
	openErr error

	requests chan *Request

	// Inbound data buffer with condition-variable signaling. It never
	// holds more than the window granted the peer.
	dmu       sync.Mutex
	dcond     *sync.Cond
	buf       bytes.Buffer
	eof       bool
	closed    bool
	sentEOF   bool
	sentClose bool
	// replyCh carries success/failure answers to SendRequest. Made with
	// the channel, written under dmu while !closed, closed once by
	// markClosed and never replaced.
	replyCh chan bool

	// Outbound flow control.
	wmu             sync.Mutex
	wcond           *sync.Cond
	remoteWindow    uint64
	remoteMaxPacket uint32

	// Inbound flow control, under dmu. localWindow is the window still
	// granted the peer: the bytes it may send before our next
	// WINDOW_ADJUST. consumed counts bytes the application has read and
	// that are not yet re-credited.
	localWindow uint32
	consumed    uint32
}

func newChannel(m *Mux, window uint32) *Channel {
	ch := &Channel{
		mux:         m,
		opened:      make(chan struct{}),
		requests:    make(chan *Request, 16),
		localWindow: window,
	}
	// Sized like requests: replies a slow SendRequest has yet to read.
	ch.replyCh = make(chan bool, 16)
	ch.dcond = sync.NewCond(&ch.dmu)
	ch.wcond = sync.NewCond(&ch.wmu)
	return ch
}

// Requests returns the stream of channel requests from the peer. The
// channel is closed when the peer closes the SSH channel.
func (ch *Channel) Requests() <-chan *Request { return ch.requests }

// Read returns data sent by the peer. It blocks until data, EOF, or
// channel close. The peer's window is re-credited only for what Read
// returns, so a peer whose data nobody reads stalls once it has sent
// the window.
func (ch *Channel) Read(p []byte) (int, error) {
	ch.dmu.Lock()
	for ch.buf.Len() == 0 && !ch.eof && !ch.closed {
		ch.dcond.Wait()
	}
	if ch.buf.Len() == 0 {
		ch.dmu.Unlock()
		return 0, io.EOF
	}
	n, _ := ch.buf.Read(p)
	adjust := ch.creditLocked(uint32(n))
	ch.dmu.Unlock()
	if adjust == 0 {
		return n, nil
	}
	b := NewBuilder(12)
	b.Byte(MsgChannelWindowAdjust)
	b.Uint32(ch.remoteID)
	b.Uint32(adjust)
	return n, ch.mux.conn.WritePacket(b.Bytes())
}

// creditLocked counts n bytes read and returns the WINDOW_ADJUST to
// send for them, 0 for none, the way OpenSSH's channel_check_window
// decides: one adjust covers everything read since the last, sent once
// that exceeds three maximum packets or half the window, and never
// after CLOSE. Caller holds dmu.
func (ch *Channel) creditLocked(n uint32) uint32 {
	ch.consumed += n
	if ch.sentClose || ch.closed || (ch.consumed <= 3*defaultMaxPacket && ch.consumed <= defaultWindow/2) {
		return 0
	}
	adjust := ch.consumed
	ch.consumed = 0
	ch.localWindow += adjust
	return adjust
}

// Write sends data to the peer, fragmenting to the peer's maximum packet
// size and blocking on the peer's window.
func (ch *Channel) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		ch.wmu.Lock()
		for ch.remoteWindow == 0 && !ch.closedLocked() {
			ch.wcond.Wait()
		}
		if ch.closedLocked() {
			ch.wmu.Unlock()
			return total, ErrMuxClosed
		}
		n := len(p)
		if max := int(ch.remoteMaxPacket) - 64; max > 0 && n > max {
			n = max
		}
		if uint64(n) > ch.remoteWindow {
			n = int(ch.remoteWindow)
		}
		ch.remoteWindow -= uint64(n)
		ch.wmu.Unlock()

		b := NewBuilder(16 + n)
		b.Byte(MsgChannelData)
		b.Uint32(ch.remoteID)
		b.String(p[:n])
		if err := ch.mux.conn.WritePacket(b.Bytes()); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

func (ch *Channel) closedLocked() bool {
	ch.dmu.Lock()
	defer ch.dmu.Unlock()
	return ch.closed
}

// SendRequest issues a channel request and, if wantReply, waits for the
// peer's success/failure answer.
func (ch *Channel) SendRequest(name string, wantReply bool, payload []byte) (bool, error) {
	b := NewBuilder(16 + len(name) + len(payload))
	b.Byte(MsgChannelRequest)
	b.Uint32(ch.remoteID)
	b.StringS(name)
	b.Bool(wantReply)
	b.Raw(payload)
	if err := ch.mux.conn.WritePacket(b.Bytes()); err != nil {
		return false, err
	}
	if !wantReply {
		return true, nil
	}
	select {
	case ok, alive := <-ch.replyCh:
		if !alive {
			return false, ErrMuxClosed
		}
		return ok, nil
	case <-ch.mux.done:
		return false, ErrMuxClosed
	}
}

// CloseWrite sends EOF: no more data will be written.
func (ch *Channel) CloseWrite() error {
	ch.dmu.Lock()
	if ch.sentEOF || ch.sentClose {
		ch.dmu.Unlock()
		return nil
	}
	ch.sentEOF = true
	ch.dmu.Unlock()
	return ch.mux.conn.WritePacket(ch.msg(MsgChannelEOF))
}

// Close closes the channel in both directions.
func (ch *Channel) Close() error {
	ch.dmu.Lock()
	if ch.sentClose {
		ch.dmu.Unlock()
		return nil
	}
	ch.sentClose = true
	ch.dmu.Unlock()
	return ch.mux.conn.WritePacket(ch.msg(MsgChannelClose))
}

// Exit ends a session the way sshd does: the RFC 4254 section 6.10
// exit-status request, EOF (unless CloseWrite already sent it) and CLOSE,
// all in one write. It is a no-op once CLOSE was sent.
func (ch *Channel) Exit(status uint32) error {
	ch.dmu.Lock()
	if ch.sentClose {
		ch.dmu.Unlock()
		return nil
	}
	sendEOF := !ch.sentEOF
	ch.sentEOF, ch.sentClose = true, true
	ch.dmu.Unlock()

	b := NewBuilder(32)
	b.Byte(MsgChannelRequest)
	b.Uint32(ch.remoteID)
	b.StringS("exit-status")
	b.Bool(false)
	b.Uint32(status)
	msgs := [][]byte{b.Bytes()}
	if sendEOF {
		msgs = append(msgs, ch.msg(MsgChannelEOF))
	}
	return ch.mux.conn.writePackets(append(msgs, ch.msg(MsgChannelClose))...)
}

// msg builds a message of type t that carries only the peer's channel ID.
func (ch *Channel) msg(t byte) []byte {
	return NewBuilder(5).Byte(t).Uint32(ch.remoteID).Bytes()
}

// deliverData buffers inbound data within the window granted the peer.
// Data beyond it is dropped, as OpenSSH's channel_input_data does, so a
// peer that ignores the window cannot grow the buffer past it.
func (ch *Channel) deliverData(data []byte) {
	ch.dmu.Lock()
	if uint32(len(data)) > ch.localWindow {
		data = data[:ch.localWindow]
	}
	ch.localWindow -= uint32(len(data))
	ch.buf.Write(data)
	ch.dcond.Broadcast()
	ch.dmu.Unlock()
}

func (ch *Channel) markEOF() {
	ch.dmu.Lock()
	ch.eof = true
	ch.dcond.Broadcast()
	ch.dmu.Unlock()
}

func (ch *Channel) markClosed() {
	ch.dmu.Lock()
	already := ch.closed
	ch.closed = true
	if !already {
		// Closed, never dropped: a reply buffered before the close is
		// still received by a SendRequest that selects after it.
		close(ch.replyCh)
	}
	ch.dcond.Broadcast()
	ch.dmu.Unlock()
	ch.wmu.Lock()
	ch.wcond.Broadcast()
	ch.wmu.Unlock()
	if !already {
		close(ch.requests)
	}
}

// loop is the mux read loop: it dispatches every inbound packet.
func (m *Mux) loop() {
	err := m.run()
	m.mu.Lock()
	m.err = err
	chans := make([]*Channel, 0, len(m.channels))
	for _, ch := range m.channels {
		chans = append(chans, ch)
	}
	m.channels = map[uint32]*Channel{}
	m.mu.Unlock()
	for _, ch := range chans {
		select {
		case <-ch.opened:
		default:
			ch.openErr = err
			close(ch.opened)
		}
		ch.markClosed()
	}
	close(m.incoming)
	close(m.done)
}

func (m *Mux) run() error {
	for {
		payload, err := m.conn.ReadPacket()
		if err != nil {
			return err
		}
		switch payload[0] {
		case MsgChannelOpen:
			if err := m.handleOpen(payload); err != nil {
				return err
			}
		case MsgChannelOpenConfirmation:
			r := NewReader(payload[1:])
			local := r.Uint32()
			remote := r.Uint32()
			window := r.Uint32()
			maxPkt := r.Uint32()
			if err := r.Err(); err != nil {
				return err
			}
			ch := m.lookup(local)
			if ch == nil {
				continue
			}
			ch.remoteID = remote
			ch.wmu.Lock()
			ch.remoteWindow = uint64(window)
			ch.remoteMaxPacket = maxPkt
			ch.wmu.Unlock()
			close(ch.opened)
		case MsgChannelOpenFailure:
			r := NewReader(payload[1:])
			local := r.Uint32()
			reason := r.Uint32()
			msg := r.StringS()
			ch := m.lookup(local)
			if ch == nil {
				continue
			}
			ch.openErr = &OpenChannelError{Reason: reason, Message: msg}
			close(ch.opened)
		case MsgChannelWindowAdjust:
			r := NewReader(payload[1:])
			local := r.Uint32()
			delta := r.Uint32()
			ch := m.lookup(local)
			if ch == nil {
				continue
			}
			ch.wmu.Lock()
			ch.remoteWindow += uint64(delta)
			ch.wcond.Broadcast()
			ch.wmu.Unlock()
		case MsgChannelData:
			r := NewReader(payload[1:])
			local := r.Uint32()
			data := r.String()
			if err := r.Err(); err != nil {
				return err
			}
			ch := m.lookup(local)
			if ch == nil {
				continue
			}
			ch.deliverData(data)
		case MsgChannelExtendedData:
			r := NewReader(payload[1:])
			local := r.Uint32()
			r.Uint32() // data type code (stderr); merged into main stream
			data := r.String()
			if err := r.Err(); err != nil {
				return err
			}
			ch := m.lookup(local)
			if ch == nil {
				continue
			}
			ch.deliverData(data)
		case MsgChannelEOF:
			r := NewReader(payload[1:])
			if ch := m.lookup(r.Uint32()); ch != nil {
				ch.markEOF()
			}
		case MsgChannelClose:
			r := NewReader(payload[1:])
			id := r.Uint32()
			if ch := m.lookup(id); ch != nil {
				_ = ch.Close() // reply-close if we have not already
				ch.markClosed()
				m.forget(id)
			}
		case MsgChannelRequest:
			r := NewReader(payload[1:])
			local := r.Uint32()
			name := r.StringS()
			wantReply := r.Bool()
			rest := bytes.Clone(r.Rest())
			if err := r.Err(); err != nil {
				return err
			}
			ch := m.lookup(local)
			if ch == nil {
				continue
			}
			req := &Request{Type: name, WantReply: wantReply, Payload: rest, ch: ch}
			select {
			case ch.requests <- req:
			default:
				// Slow consumer: fail the request rather than deadlock.
				_ = req.Reply(false)
			}
		case MsgChannelSuccess:
			r := NewReader(payload[1:])
			if ch := m.lookup(r.Uint32()); ch != nil {
				ch.deliverReply(true)
			}
		case MsgChannelFailure:
			r := NewReader(payload[1:])
			if ch := m.lookup(r.Uint32()); ch != nil {
				ch.deliverReply(false)
			}
		case MsgGlobalRequest:
			r := NewReader(payload[1:])
			name := r.StringS()
			wantReply := r.Bool()
			rest := bytes.Clone(r.Rest())
			gr := GlobalRequest{Type: name, WantReply: wantReply, Payload: rest}
			select {
			case m.globalReqs <- gr:
			default:
			}
			if wantReply {
				if err := m.conn.WritePacket([]byte{MsgRequestFailure}); err != nil {
					return err
				}
			}
		default:
			// Unknown message: reply UNIMPLEMENTED per RFC 4253 11.4.
			b := NewBuilder(5)
			b.Byte(MsgUnimplemented)
			b.Uint32(m.conn.readSeq - 1)
			if err := m.conn.WritePacket(b.Bytes()); err != nil {
				return err
			}
		}
	}
}

func (ch *Channel) deliverReply(ok bool) {
	ch.dmu.Lock()
	defer ch.dmu.Unlock()
	if ch.closed {
		return
	}
	select {
	case ch.replyCh <- ok:
	default:
	}
}

func (m *Mux) handleOpen(payload []byte) error {
	r := NewReader(payload[1:])
	chanType := r.StringS()
	remoteID := r.Uint32()
	window := r.Uint32()
	maxPkt := r.Uint32()
	extra := bytes.Clone(r.Rest())
	if err := r.Err(); err != nil {
		return err
	}
	nc := &NewChannel{
		mux:             m,
		ChanType:        chanType,
		ExtraData:       extra,
		remoteID:        remoteID,
		remoteWindow:    window,
		remoteMaxPacket: maxPkt,
	}
	select {
	case m.incoming <- nc:
		return nil
	default:
		return nc.Reject(OpenResourceShortage, "too many pending channels")
	}
}
