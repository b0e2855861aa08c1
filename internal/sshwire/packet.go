package sshwire

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/sha512"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
)

const (
	// maxPacket is the largest packet payload we accept, matching the
	// common OpenSSH limit.
	maxPacket = 256 * 1024

	// minPadding is the protocol-mandated minimum padding length.
	minPadding = 4

	// blockSize is the cipher block granularity packets are padded to.
	// aes128-ctr uses the AES block size; the unencrypted stream uses 8,
	// but padding to 16 everywhere is always legal and simpler.
	blockSize = 16
)

var errPacketTooBig = errors.New("sshwire: packet exceeds maximum size")

// packetCipher frames, encrypts, and authenticates SSH binary packets in
// one direction. Implementations are not safe for concurrent use.
type packetCipher interface {
	// appendPacket appends payload to dst as one SSH binary packet,
	// encrypted and followed by its MAC. On error it returns dst as it
	// was (an over-size payload: errPacketTooBig, dst untouched).
	appendPacket(dst []byte, seq uint32, payload []byte) ([]byte, error)
	// readPacket reads one SSH binary packet and returns its payload.
	readPacket(r io.Reader, seq uint32) ([]byte, error)
}

// plainCipher is the pre-NEWKEYS "none" cipher: no encryption, no MAC.
type plainCipher struct {
	readBuf []byte
	lenBuf  [4]byte
}

func paddingFor(payloadLen int) int {
	// packet_length(4) + padding_length(1) + payload + padding must be a
	// multiple of blockSize.
	pad := blockSize - (5+payloadLen)%blockSize
	if pad < minPadding {
		pad += blockSize
	}
	return pad
}

// appendFrame appends payload to dst framed as an unencrypted binary
// packet: length, padding length, payload, random padding.
func appendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > maxPacket {
		return dst, errPacketTooBig
	}
	pad := paddingFor(len(payload))
	total := 5 + len(payload) + pad
	start := len(dst)
	dst = slices.Grow(dst, total)[:start+total]
	pkt := dst[start:]
	binary.BigEndian.PutUint32(pkt, uint32(total-4))
	pkt[4] = byte(pad)
	copy(pkt[5:], payload)
	if _, err := rand.Read(pkt[5+len(payload):]); err != nil {
		return dst[:start], fmt.Errorf("sshwire: generating padding: %w", err)
	}
	return dst, nil
}

func (c *plainCipher) appendPacket(dst []byte, _ uint32, payload []byte) ([]byte, error) {
	return appendFrame(dst, payload)
}

func (c *plainCipher) readPacket(r io.Reader, _ uint32) ([]byte, error) {
	if _, err := io.ReadFull(r, c.lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.lenBuf[:])
	if n < 1+minPadding || n > maxPacket+blockSize {
		return nil, fmt.Errorf("sshwire: invalid packet length %d", n)
	}
	if cap(c.readBuf) < int(n) {
		c.readBuf = make([]byte, n)
	}
	buf := c.readBuf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	pad := int(buf[0])
	if pad < minPadding || pad >= int(n) {
		return nil, fmt.Errorf("sshwire: invalid padding length %d", pad)
	}
	return buf[1 : int(n)-pad], nil
}

// cipherSpec describes a negotiable encryption algorithm.
type cipherSpec struct {
	keyLen int
}

// macSpec describes a negotiable MAC algorithm.
type macSpec struct {
	newHash func() hash.Hash
	size    int
}

// cipherSpecs and macSpecs are the implemented algorithm tables; the
// KEXINIT preference order lives in transport.go.
var cipherSpecs = map[string]cipherSpec{
	CipherAES128CTR: {keyLen: 16},
	CipherAES256CTR: {keyLen: 32},
}

var macSpecs = map[string]macSpec{
	MACHmacSHA256: {newHash: sha256.New, size: sha256.Size},
	MACHmacSHA512: {newHash: sha512.New, size: sha512.Size},
}

// ctrCipher is AES-CTR (128 or 256) framing with an HMAC (SHA-256 or
// SHA-512) over (sequence number || plaintext packet), per RFC 4253
// section 6.4 (MAC computed on the unencrypted packet). Each ctrCipher
// serves one direction, so its keyed HMAC is built once, at the first
// packet, and Reset for every packet after; a rekey builds new ciphers
// with new keys.
type ctrCipher struct {
	stream  cipher.Stream
	spec    macSpec
	macKey  []byte
	mac     hash.Hash
	readBuf []byte
	macBuf  [sha512.Size]byte
	// seqBuf and lenBuf hold the sequence number and the packet length
	// while they pass through interface calls, which would move a local
	// array to the heap on every packet.
	seqBuf, lenBuf [4]byte
}

func newCTRCipher(cipherName, macName string, key, iv, macKey []byte) (*ctrCipher, error) {
	if _, ok := cipherSpecs[cipherName]; !ok {
		return nil, fmt.Errorf("sshwire: unsupported cipher %q", cipherName)
	}
	ms, ok := macSpecs[macName]
	if !ok {
		return nil, fmt.Errorf("sshwire: unsupported MAC %q", macName)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &ctrCipher{stream: cipher.NewCTR(block, iv), spec: ms, macKey: macKey}, nil
}

// sumMAC returns the MAC of seq || parts, valid until the next call.
func (c *ctrCipher) sumMAC(seq uint32, parts ...[]byte) []byte {
	if c.mac == nil {
		c.mac = hmac.New(c.spec.newHash, c.macKey)
	} else {
		c.mac.Reset()
	}
	binary.BigEndian.PutUint32(c.seqBuf[:], seq)
	c.mac.Write(c.seqBuf[:])
	for _, p := range parts {
		c.mac.Write(p)
	}
	return c.mac.Sum(c.macBuf[:0])
}

func (c *ctrCipher) appendPacket(dst []byte, seq uint32, payload []byte) ([]byte, error) {
	start := len(dst)
	dst, err := appendFrame(dst, payload)
	if err != nil {
		return dst, err
	}
	pkt := dst[start:]
	tag := c.sumMAC(seq, pkt)
	c.stream.XORKeyStream(pkt, pkt)
	return append(dst, tag...), nil
}

func (c *ctrCipher) readPacket(r io.Reader, seq uint32) ([]byte, error) {
	lenBuf := c.lenBuf[:]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return nil, err
	}
	c.stream.XORKeyStream(lenBuf, lenBuf)
	n := binary.BigEndian.Uint32(lenBuf)
	if n < 1+minPadding || n > maxPacket+blockSize {
		return nil, fmt.Errorf("sshwire: invalid packet length %d", n)
	}
	need := int(n) + c.spec.size
	if cap(c.readBuf) < need {
		c.readBuf = make([]byte, need)
	}
	buf := c.readBuf[:need]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	body, tag := buf[:n], buf[n:]
	c.stream.XORKeyStream(body, body)
	if subtle.ConstantTimeCompare(c.sumMAC(seq, lenBuf, body), tag) != 1 {
		return nil, errors.New("sshwire: MAC verification failed")
	}
	pad := int(body[0])
	if pad < minPadding || pad >= int(n) {
		return nil, fmt.Errorf("sshwire: invalid padding length %d", pad)
	}
	return body[1 : int(n)-pad], nil
}

// directionKeys derives the cipher key, IV, and MAC key for one direction
// from the shared secret K, exchange hash H, and session ID, per
// RFC 4253 section 7.2, sized for the negotiated algorithms.
// ivTag/keyTag/macTag are the single-letter labels ('A'..'F').
func directionKeys(k, h, sessionID []byte, cipherName, macName string, ivTag, keyTag, macTag byte) (key, iv, macKey []byte) {
	cs := cipherSpecs[cipherName]
	ms := macSpecs[macName]
	iv = deriveKey(k, h, sessionID, ivTag, aes.BlockSize)
	key = deriveKey(k, h, sessionID, keyTag, cs.keyLen)
	macKey = deriveKey(k, h, sessionID, macTag, ms.size)
	return key, iv, macKey
}

// deriveKey implements the K1..Kn expansion of RFC 4253 section 7.2:
// K1 = HASH(K || H || tag || session_id); Kn = HASH(K || H || K1..Kn-1).
func deriveKey(k, h, sessionID []byte, tag byte, length int) []byte {
	var out []byte
	km := NewBuilder(len(k) + 4)
	km.Mpint(k)
	kMpint := km.Bytes()

	d := sha256.New()
	d.Write(kMpint)
	d.Write(h)
	d.Write([]byte{tag})
	d.Write(sessionID)
	out = d.Sum(nil)

	for len(out) < length {
		d.Reset()
		d.Write(kMpint)
		d.Write(h)
		d.Write(out)
		out = d.Sum(out)
	}
	return out[:length]
}
