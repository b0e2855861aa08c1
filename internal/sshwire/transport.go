package sshwire

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// DefaultServerVersion is the banner the honeypot presents; it mimics a
// stock Debian OpenSSH, as Cowrie does.
const DefaultServerVersion = "SSH-2.0-OpenSSH_8.4p1 Debian-5+deb11u1"

// DefaultClientVersion is the banner our attacker-simulation client sends.
const DefaultClientVersion = "SSH-2.0-Go_honeynet_client_0.1"

// Config controls a transport handshake.
type Config struct {
	// Version is the local identification string, without CRLF. If empty
	// a role-appropriate default is used.
	Version string
	// HostKey is required for servers, ignored for clients.
	HostKey *HostKey
	// HostKeyCheck, for clients, vets the server host key blob. Nil means
	// accept any key (the honeypot threat model: attackers never verify).
	HostKeyCheck func(blob []byte) error
	// HandshakeTimeout bounds version exchange + key exchange. Zero means
	// no deadline.
	HandshakeTimeout time.Duration
	// Ciphers overrides the cipher preference order (both directions).
	// Defaults to [aes128-ctr, aes256-ctr].
	Ciphers []string
	// MACs overrides the MAC preference order (both directions).
	// Defaults to [hmac-sha2-256, hmac-sha2-512].
	MACs []string
}

func (c *Config) cipherPrefs() []string {
	if c != nil && len(c.Ciphers) > 0 {
		return c.Ciphers
	}
	return []string{CipherAES128CTR, CipherAES256CTR}
}

func (c *Config) macPrefs() []string {
	if c != nil && len(c.MACs) > 0 {
		return c.MACs
	}
	return []string{MACHmacSHA256, MACHmacSHA512}
}

func (c *Config) version(server bool) string {
	if c != nil && c.Version != "" {
		return c.Version
	}
	if server {
		return DefaultServerVersion
	}
	return DefaultClientVersion
}

// Conn is an established SSH transport connection carrying encrypted,
// authenticated packets. Reads and writes may proceed concurrently with
// each other, but only one reader and one writer at a time.
type Conn struct {
	conn     net.Conn
	br       *bufio.Reader
	isServer bool

	localVersion  string
	remoteVersion string
	sessionID     []byte
	hostKeyBlob   []byte

	rmu     sync.Mutex
	reader  packetCipher
	readSeq uint32

	wmu      sync.Mutex
	wcond    *sync.Cond
	writer   packetCipher
	writeSeq uint32
	// wbuf is the reused buffer a burst of packets is framed into before
	// its single conn.Write (guarded by wmu).
	wbuf []byte

	// Rekeying state (guarded by wmu for the write side).
	// handshakeDone gates KEXINIT interpretation: before the initial
	// handshake completes, KEXINIT packets belong to the handshake
	// itself, not to a re-exchange. It is written inside finishKex
	// (which holds both rmu and wmu) and read under rmu.
	handshakeDone  bool
	rekeying       bool
	ourPendingInit []byte
	rekeys         int

	// Role material retained for rekeys.
	hostKey      *HostKey
	hostKeyCheck func(blob []byte) error

	// Algorithm preferences (ours) and the negotiated outcome.
	cipherPrefs []string
	macPrefs    []string
	algs        negotiatedAlgs
}

// negotiatedAlgs is the per-direction algorithm outcome of a KEXINIT
// exchange.
type negotiatedAlgs struct {
	c2sCipher, s2cCipher string
	c2sMAC, s2cMAC       string
}

// SessionID returns the session identifier (the first exchange hash).
func (c *Conn) SessionID() []byte { return c.sessionID }

// Algorithms reports the negotiated per-direction cipher and MAC names.
type Algorithms struct {
	C2SCipher, S2CCipher string
	C2SMAC, S2CMAC       string
}

// Algorithms returns the outcome of the most recent KEXINIT negotiation.
func (c *Conn) Algorithms() Algorithms {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return Algorithms{
		C2SCipher: c.algs.c2sCipher, S2CCipher: c.algs.s2cCipher,
		C2SMAC: c.algs.c2sMAC, S2CMAC: c.algs.s2cMAC,
	}
}

// RemoteVersion returns the peer's identification string.
func (c *Conn) RemoteVersion() string { return c.remoteVersion }

// ServerHostKeyBlob returns the server host key blob observed (client) or
// presented (server) during key exchange.
func (c *Conn) ServerHostKeyBlob() []byte { return c.hostKeyBlob }

// RemoteAddr returns the remote network address.
func (c *Conn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// LocalAddr returns the local network address.
func (c *Conn) LocalAddr() net.Addr { return c.conn.LocalAddr() }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.conn.Close() }

// SetDeadline sets the read and write deadlines on the underlying
// connection.
func (c *Conn) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// maxKeptWriteBuf caps the write buffer a Conn keeps between writes, so
// an idle connection does not pin the memory of one large data packet.
const maxKeptWriteBuf = 64 * 1024

// WritePacket sends one SSH packet with the given payload. During a key
// re-exchange, application writes block until NEWKEYS completes (RFC
// 4253 section 9 forbids non-kex packets after KEXINIT).
func (c *Conn) WritePacket(payload []byte) error {
	return c.writePackets(payload)
}

// writePackets sends payloads as consecutive packets in one write, once
// no key re-exchange is in flight: a burst never straddles a KEXINIT.
func (c *Conn) writePackets(payloads ...[]byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for c.rekeying {
		c.wcond.Wait()
	}
	return c.writeLocked(payloads...)
}

// writeLocked frames payloads into the connection's write buffer, each
// packet followed by its MAC in sequence order, and sends them with one
// conn.Write. The caller holds wmu. A payload that cannot be framed ends
// the burst there: the packets before it are still sent, so the cipher
// stream and the sequence number stay in step with the peer.
func (c *Conn) writeLocked(payloads ...[]byte) error {
	buf := c.wbuf[:0]
	var err error
	for _, p := range payloads {
		if buf, err = c.writer.appendPacket(buf, c.writeSeq, p); err != nil {
			break
		}
		c.writeSeq++
	}
	if len(buf) > 0 {
		if _, werr := c.conn.Write(buf); err == nil {
			err = werr
		}
	}
	if cap(buf) <= maxKeptWriteBuf {
		c.wbuf = buf[:0]
	} else {
		c.wbuf = nil
	}
	return err
}

// ReadPacket reads the next SSH packet payload, transparently handling
// IGNORE, DEBUG, and UNIMPLEMENTED messages. A peer DISCONNECT is returned
// as a *DisconnectMsg error. The returned slice is only valid until the
// next ReadPacket call.
func (c *Conn) ReadPacket() ([]byte, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for {
		payload, err := c.reader.readPacket(c.br, c.readSeq)
		c.readSeq++
		if err != nil {
			return nil, err
		}
		if len(payload) == 0 {
			return nil, errors.New("sshwire: empty packet payload")
		}
		switch payload[0] {
		case MsgIgnore, MsgDebug, MsgUnimplemented:
			continue
		case MsgKexInit:
			if !c.handshakeDone {
				return payload, nil // initial handshake KEXINIT
			}
			// Peer-initiated (or completing our) key re-exchange.
			if err := c.handleRekey(bytes.Clone(payload)); err != nil {
				return nil, fmt.Errorf("sshwire: rekey: %w", err)
			}
			continue
		case MsgDisconnect:
			m, perr := ParseDisconnect(payload)
			if perr != nil {
				return nil, perr
			}
			return nil, m
		default:
			return payload, nil
		}
	}
}

// Disconnect sends SSH_MSG_DISCONNECT and closes the connection.
func (c *Conn) Disconnect(reason uint32, desc string) error {
	m := DisconnectMsg{Reason: reason, Description: desc}
	_ = c.WritePacket(m.Marshal())
	return c.conn.Close()
}

// exchangeVersions writes our identification string and reads the peer's.
// Per RFC 4253 section 4.2 the peer may send preliminary non "SSH-" lines
// (servers only), which we skip.
func exchangeVersions(conn net.Conn, br *bufio.Reader, local string, expectBanner bool) (string, error) {
	if _, err := conn.Write([]byte(local + "\r\n")); err != nil {
		return "", fmt.Errorf("sshwire: writing version: %w", err)
	}
	for lines := 0; lines < 64; lines++ {
		line, err := readLine(br)
		if err != nil {
			return "", fmt.Errorf("sshwire: reading version: %w", err)
		}
		if strings.HasPrefix(line, "SSH-") {
			if !strings.HasPrefix(line, "SSH-2.0-") && !strings.HasPrefix(line, "SSH-1.99-") {
				return "", fmt.Errorf("sshwire: unsupported protocol version %q", line)
			}
			return line, nil
		}
		if !expectBanner {
			return "", fmt.Errorf("sshwire: expected version string, got %q", line)
		}
	}
	return "", errors.New("sshwire: too many banner lines before version string")
}

func readLine(br *bufio.Reader) (string, error) {
	// Version lines are at most 255 bytes including CRLF (RFC 4253 4.2).
	var buf []byte
	for len(buf) < 255 {
		b, err := br.ReadByte()
		if err != nil {
			return "", err
		}
		if b == '\n' {
			return string(bytes.TrimRight(buf, "\r")), nil
		}
		buf = append(buf, b)
	}
	return "", errors.New("sshwire: version line too long")
}

// makeKexInit builds our KEXINIT from the connection's preferences.
func (c *Conn) makeKexInit() (*KexInitMsg, error) {
	m := &KexInitMsg{
		KexAlgos:                []string{KexCurve25519, KexCurve25519LibSSH},
		HostKeyAlgos:            []string{HostKeyEd25519},
		CiphersClientServer:     c.cipherPrefs,
		CiphersServerClient:     c.cipherPrefs,
		MACsClientServer:        c.macPrefs,
		MACsServerClient:        c.macPrefs,
		CompressionClientServer: []string{CompressionNone},
		CompressionServerClient: []string{CompressionNone},
	}
	if _, err := rand.Read(m.Cookie[:]); err != nil {
		return nil, fmt.Errorf("sshwire: generating KEXINIT cookie: %w", err)
	}
	return m, nil
}

// negotiateAlgs validates every algorithm slot and returns the outcome.
// Client preference wins per RFC 4253 section 7.1.
func negotiateAlgs(client, server *KexInitMsg) (negotiatedAlgs, error) {
	var out negotiatedAlgs
	var err error
	if _, err = negotiate(client.KexAlgos, server.KexAlgos); err != nil {
		return out, err
	}
	if _, err = negotiate(client.HostKeyAlgos, server.HostKeyAlgos); err != nil {
		return out, err
	}
	if out.c2sCipher, err = negotiate(client.CiphersClientServer, server.CiphersClientServer); err != nil {
		return out, err
	}
	if out.s2cCipher, err = negotiate(client.CiphersServerClient, server.CiphersServerClient); err != nil {
		return out, err
	}
	if out.c2sMAC, err = negotiate(client.MACsClientServer, server.MACsClientServer); err != nil {
		return out, err
	}
	if out.s2cMAC, err = negotiate(client.MACsServerClient, server.MACsServerClient); err != nil {
		return out, err
	}
	if _, err = negotiate(client.CompressionClientServer, server.CompressionClientServer); err != nil {
		return out, err
	}
	if _, err = negotiate(client.CompressionServerClient, server.CompressionServerClient); err != nil {
		return out, err
	}
	return out, nil
}

// ServerHandshake performs the server side of the SSH transport handshake
// on conn and returns an established Conn.
func ServerHandshake(conn net.Conn, cfg *Config) (*Conn, error) {
	if cfg == nil || cfg.HostKey == nil {
		return nil, errors.New("sshwire: server requires a host key")
	}
	if cfg.HandshakeTimeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(cfg.HandshakeTimeout)); err != nil {
			return nil, err
		}
		defer conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}

	c := &Conn{
		conn:         conn,
		br:           bufio.NewReaderSize(conn, 32*1024),
		isServer:     true,
		localVersion: cfg.version(true),
		reader:       &plainCipher{},
		writer:       &plainCipher{},
		hostKey:      cfg.HostKey,
		cipherPrefs:  cfg.cipherPrefs(),
		macPrefs:     cfg.macPrefs(),
	}
	c.wcond = sync.NewCond(&c.wmu)
	remote, err := exchangeVersions(conn, c.br, c.localVersion, false)
	if err != nil {
		return nil, err
	}
	c.remoteVersion = remote

	ourInit, err := c.makeKexInit()
	if err != nil {
		return nil, err
	}
	ourInitBytes := ourInit.Marshal()
	if err := c.WritePacket(ourInitBytes); err != nil {
		return nil, err
	}
	theirInitBytes, err := c.readCopy()
	if err != nil {
		return nil, err
	}
	theirInit, err := ParseKexInit(theirInitBytes)
	if err != nil {
		return nil, err
	}
	algs, err := negotiateAlgs(theirInit, ourInit)
	if err != nil {
		return nil, err
	}
	c.algs = algs

	ecdhInit, err := c.readCopy()
	if err != nil {
		return nil, err
	}
	in := exchangeHashInputs{
		clientVersion: c.remoteVersion,
		serverVersion: c.localVersion,
		clientKexInit: theirInitBytes,
		serverKexInit: ourInitBytes,
	}
	reply, res, err := kexServer(cfg.HostKey, in, ecdhInit)
	if err != nil {
		return nil, err
	}
	if err := c.WritePacket(reply); err != nil {
		return nil, err
	}
	return c.finishKex(res)
}

// ClientHandshake performs the client side of the SSH transport handshake.
func ClientHandshake(conn net.Conn, cfg *Config) (*Conn, error) {
	if cfg == nil {
		cfg = &Config{}
	}
	if cfg.HandshakeTimeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(cfg.HandshakeTimeout)); err != nil {
			return nil, err
		}
		defer conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}

	c := &Conn{
		conn:         conn,
		br:           bufio.NewReaderSize(conn, 32*1024),
		localVersion: cfg.version(false),
		reader:       &plainCipher{},
		writer:       &plainCipher{},
		hostKeyCheck: cfg.HostKeyCheck,
		cipherPrefs:  cfg.cipherPrefs(),
		macPrefs:     cfg.macPrefs(),
	}
	c.wcond = sync.NewCond(&c.wmu)
	remote, err := exchangeVersions(conn, c.br, c.localVersion, true)
	if err != nil {
		return nil, err
	}
	c.remoteVersion = remote

	ourInit, err := c.makeKexInit()
	if err != nil {
		return nil, err
	}
	ourInitBytes := ourInit.Marshal()
	if err := c.WritePacket(ourInitBytes); err != nil {
		return nil, err
	}
	theirInitBytes, err := c.readCopy()
	if err != nil {
		return nil, err
	}
	theirInit, err := ParseKexInit(theirInitBytes)
	if err != nil {
		return nil, err
	}
	algs, err := negotiateAlgs(ourInit, theirInit)
	if err != nil {
		return nil, err
	}
	c.algs = algs

	priv, initPayload, err := kexClientInit()
	if err != nil {
		return nil, err
	}
	if err := c.WritePacket(initPayload); err != nil {
		return nil, err
	}
	replyPayload, err := c.readCopy()
	if err != nil {
		return nil, err
	}
	in := exchangeHashInputs{
		clientVersion: c.localVersion,
		serverVersion: c.remoteVersion,
		clientKexInit: ourInitBytes,
		serverKexInit: theirInitBytes,
	}
	res, err := kexClientFinish(priv, in, replyPayload, cfg.HostKeyCheck)
	if err != nil {
		return nil, err
	}
	return c.finishKex(res)
}

// readCopy reads a packet and returns an owned copy of its payload (the
// handshake retains KEXINIT payloads for the exchange hash).
func (c *Conn) readCopy() ([]byte, error) {
	p, err := c.ReadPacket()
	if err != nil {
		return nil, err
	}
	return bytes.Clone(p), nil
}

// finishKex exchanges NEWKEYS and installs the negotiated cipher state.
func (c *Conn) finishKex(res *kexResult) (*Conn, error) {
	if c.sessionID == nil {
		c.sessionID = bytes.Clone(res.H)
	}
	c.hostKeyBlob = bytes.Clone(res.HostKeyBlob)

	if err := c.WritePacket([]byte{MsgNewKeys}); err != nil {
		return nil, err
	}
	p, err := c.ReadPacket()
	if err != nil {
		return nil, err
	}
	if p[0] != MsgNewKeys {
		return nil, fmt.Errorf("sshwire: expected NEWKEYS, got %s", MsgName(p[0]))
	}

	// Direction tags per RFC 4253 section 7.2: client-to-server uses
	// 'A' (IV), 'C' (key), 'E' (MAC); server-to-client 'B', 'D', 'F'.
	c2sKey, c2sIV, c2sMAC := directionKeys(res.K, res.H, c.sessionID, c.algs.c2sCipher, c.algs.c2sMAC, 'A', 'C', 'E')
	s2cKey, s2cIV, s2cMAC := directionKeys(res.K, res.H, c.sessionID, c.algs.s2cCipher, c.algs.s2cMAC, 'B', 'D', 'F')

	c2s, err := newCTRCipher(c.algs.c2sCipher, c.algs.c2sMAC, c2sKey, c2sIV, c2sMAC)
	if err != nil {
		return nil, err
	}
	s2c, err := newCTRCipher(c.algs.s2cCipher, c.algs.s2cMAC, s2cKey, s2cIV, s2cMAC)
	if err != nil {
		return nil, err
	}
	c.rmu.Lock()
	c.wmu.Lock()
	if c.isServer {
		c.reader, c.writer = c2s, s2c
	} else {
		c.reader, c.writer = s2c, c2s
	}
	c.handshakeDone = true
	c.wmu.Unlock()
	c.rmu.Unlock()
	return c, nil
}

// RequestService sends SSH_MSG_SERVICE_REQUEST and waits for the accept
// (client side).
func (c *Conn) RequestService(name string) error {
	b := NewBuilder(5 + len(name))
	b.Byte(MsgServiceRequest)
	b.StringS(name)
	if err := c.WritePacket(b.Bytes()); err != nil {
		return err
	}
	p, err := c.ReadPacket()
	if err != nil {
		return err
	}
	r := NewReader(p)
	if t := r.Byte(); t != MsgServiceAccept {
		return fmt.Errorf("sshwire: expected SERVICE_ACCEPT, got %s", MsgName(t))
	}
	if got := r.StringS(); got != name {
		return fmt.Errorf("sshwire: service accept for %q, requested %q", got, name)
	}
	return nil
}

// AcceptService reads SSH_MSG_SERVICE_REQUEST and accepts it if the name
// matches one of allowed (server side). It returns the accepted name.
func (c *Conn) AcceptService(allowed ...string) (string, error) {
	p, err := c.ReadPacket()
	if err != nil {
		return "", err
	}
	r := NewReader(p)
	if t := r.Byte(); t != MsgServiceRequest {
		return "", fmt.Errorf("sshwire: expected SERVICE_REQUEST, got %s", MsgName(t))
	}
	name := r.StringS()
	if err := r.Err(); err != nil {
		return "", err
	}
	ok := false
	for _, a := range allowed {
		if a == name {
			ok = true
			break
		}
	}
	if !ok {
		_ = c.Disconnect(DisconnectByApplication, "service not available")
		return "", fmt.Errorf("sshwire: service %q not allowed", name)
	}
	b := NewBuilder(5 + len(name))
	b.Byte(MsgServiceAccept)
	b.StringS(name)
	if err := c.WritePacket(b.Bytes()); err != nil {
		return "", err
	}
	return name, nil
}

var _ io.Closer = (*Conn)(nil)
