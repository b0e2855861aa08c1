package sshwire

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzWireDecoders throws arbitrary bytes at every payload parser the
// server runs on attacker-controlled input.
func FuzzWireDecoders(f *testing.F) {
	c := &Conn{cipherPrefs: (*Config)(nil).cipherPrefs(), macPrefs: (*Config)(nil).macPrefs()}
	if init, err := c.makeKexInit(); err == nil {
		f.Add(init.Marshal())
	}
	f.Add((&DisconnectMsg{Reason: 2, Description: "x"}).Marshal())
	f.Add([]byte{MsgKexECDHInit, 0, 0, 0, 4, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, _ = ParseKexInit(payload)
		_, _ = ParseDisconnect(payload)
		r := NewReader(payload)
		for r.Err() == nil && r.Remaining() > 0 {
			r.String()
			r.Uint32()
		}
	})
}

// FuzzPacketReader feeds arbitrary framed bytes to the plain packet
// reader, which handles the pre-encryption attack surface.
func FuzzPacketReader(f *testing.F) {
	good, _ := framePacket([]byte{42, 1, 2, 3})
	f.Add(good)
	f.Add([]byte{0, 0, 0, 5, 4, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, wire []byte) {
		c := &plainCipher{}
		r := byteReader(wire)
		for i := 0; i < 4; i++ {
			if _, err := c.readPacket(&r, uint32(i)); err != nil {
				return
			}
		}
	})
}

// byteReader is a minimal io.Reader over a slice.
type byteReader []byte

func (b *byteReader) Read(p []byte) (int, error) {
	if len(*b) == 0 {
		return 0, errEOF
	}
	n := copy(p, *b)
	*b = (*b)[n:]
	return n, nil
}

var errEOF = errSentinel("eof")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }

// FuzzPacketBurst appends a list of payloads into one buffer with one
// ctrCipher, as Conn frames a burst, and reads them back with a peer
// ctrCipher: same payloads, in order, every MAC verified. Each byte of
// spec picks one payload: empty, exactly maxPacket, over-size (which
// must fail and leave the buffer untouched), or a short random one.
func FuzzPacketBurst(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 7, 200}, int64(1))
	f.Add([]byte{2, 2, 0}, int64(2))
	f.Add([]byte{}, int64(3))
	f.Fuzz(func(t *testing.T, spec []byte, seed int64) {
		if len(spec) > 12 {
			spec = spec[:12]
		}
		rnd := rand.New(rand.NewSource(seed))
		key, iv, macKey := make([]byte, 16), make([]byte, 16), make([]byte, 32)
		rnd.Read(key)
		rnd.Read(iv)
		rnd.Read(macKey)
		enc, err := newCTRCipher(CipherAES128CTR, MACHmacSHA256, key, iv, macKey)
		if err != nil {
			t.Fatal(err)
		}
		dec, _ := newCTRCipher(CipherAES128CTR, MACHmacSHA256, key, iv, macKey)

		var buf []byte
		var sent [][]byte
		for _, b := range spec {
			var p []byte
			switch b % 4 {
			case 0:
				p = []byte{}
			case 1:
				p = make([]byte, maxPacket)
			case 2:
				p = make([]byte, maxPacket+1+int(b))
			default:
				p = make([]byte, int(b)*5)
			}
			rnd.Read(p)
			tail := bytes.Clone(buf[len(buf):cap(buf)])
			out, err := enc.appendPacket(buf, uint32(len(sent)), p)
			if len(p) > maxPacket {
				if err != errPacketTooBig || len(out) != len(buf) || !bytes.Equal(out[len(out):cap(out)], tail) {
					t.Fatalf("over-size payload of %d: err %v, buffer %d -> %d bytes", len(p), err, len(buf), len(out))
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			buf = out
			sent = append(sent, p)
		}

		r := bytes.NewReader(buf)
		for i, want := range sent {
			got, err := dec.readPacket(r, uint32(i))
			if err != nil {
				t.Fatalf("packet %d of %d: %v", i, len(sent), err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("packet %d: got %d bytes, want %d", i, len(got), len(want))
			}
		}
		if r.Len() != 0 {
			t.Fatalf("%d bytes left after %d packets", r.Len(), len(sent))
		}
	})
}
