package sshwire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuilderReaderRoundTrip(t *testing.T) {
	b := NewBuilder(64)
	b.Byte(7)
	b.Bool(true)
	b.Bool(false)
	b.Uint32(0xdeadbeef)
	b.Uint64(1 << 40)
	b.StringS("hello")
	b.String([]byte{1, 2, 3})
	b.NameList([]string{"a", "bb", "ccc"})

	r := NewReader(b.Bytes())
	if got := r.Byte(); got != 7 {
		t.Errorf("Byte = %d, want 7", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32 = %x", got)
	}
	if got := r.Uint64(); got != 1<<40 {
		t.Errorf("Uint64 = %x", got)
	}
	if got := r.StringS(); got != "hello" {
		t.Errorf("StringS = %q", got)
	}
	if got := r.String(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("String = %v", got)
	}
	nl := r.NameList()
	if len(nl) != 3 || nl[0] != "a" || nl[1] != "bb" || nl[2] != "ccc" {
		t.Errorf("NameList = %v", nl)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 9, 'x'}) // claims 9 bytes, has 1
	if got := r.String(); got != nil {
		t.Errorf("String = %v, want nil", got)
	}
	if r.Err() != ErrShortBuffer {
		t.Errorf("Err = %v, want ErrShortBuffer", r.Err())
	}
	// Errors are sticky.
	if r.Byte() != 0 || r.Err() != ErrShortBuffer {
		t.Error("error should be sticky")
	}
}

func TestReaderStringTooBig(t *testing.T) {
	b := NewBuilder(8)
	b.Uint32(maxStringLen + 1)
	r := NewReader(b.Bytes())
	r.String()
	if r.Err() != ErrStringTooBig {
		t.Errorf("Err = %v, want ErrStringTooBig", r.Err())
	}
}

func TestMpintEncoding(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte // full encoding incl. length
	}{
		{nil, []byte{0, 0, 0, 0}},
		{[]byte{0}, []byte{0, 0, 0, 0}},
		{[]byte{0, 0, 0}, []byte{0, 0, 0, 0}},
		{[]byte{1}, []byte{0, 0, 0, 1, 1}},
		{[]byte{0x7f}, []byte{0, 0, 0, 1, 0x7f}},
		{[]byte{0x80}, []byte{0, 0, 0, 2, 0, 0x80}},          // high bit: leading zero
		{[]byte{0, 0x80}, []byte{0, 0, 0, 2, 0, 0x80}},       // strip then re-add
		{[]byte{0xff, 0x01}, []byte{0, 0, 0, 3, 0, 0xff, 1}}, // multi-byte high bit
	}
	for _, c := range cases {
		b := NewBuilder(8)
		b.Mpint(c.in)
		if !bytes.Equal(b.Bytes(), c.want) {
			t.Errorf("Mpint(%x) = %x, want %x", c.in, b.Bytes(), c.want)
		}
	}
}

func TestMpintRoundTripProperty(t *testing.T) {
	f := func(v []byte) bool {
		b := NewBuilder(len(v) + 8)
		b.Mpint(v)
		r := NewReader(b.Bytes())
		got := r.Mpint()
		if r.Err() != nil {
			return false
		}
		// Normalize expected: strip leading zeros.
		want := v
		for len(want) > 0 && want[0] == 0 {
			want = want[1:]
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringRoundTripProperty(t *testing.T) {
	f := func(v []byte) bool {
		b := NewBuilder(len(v) + 4)
		b.String(v)
		r := NewReader(b.Bytes())
		got := r.String()
		return r.Err() == nil && bytes.Equal(got, v) && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegotiate(t *testing.T) {
	got, err := negotiate([]string{"x", "y", "z"}, []string{"z", "y"})
	if err != nil || got != "y" {
		t.Errorf("negotiate = %q, %v; want y (client preference wins)", got, err)
	}
	if _, err := negotiate([]string{"a"}, []string{"b"}); err == nil {
		t.Error("negotiate should fail with no common algorithm")
	}
}

func TestKexInitRoundTrip(t *testing.T) {
	c := &Conn{cipherPrefs: (*Config)(nil).cipherPrefs(), macPrefs: (*Config)(nil).macPrefs()}
	m, err := c.makeKexInit()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseKexInit(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Cookie != m.Cookie {
		t.Error("cookie mismatch")
	}
	if len(got.KexAlgos) != 2 || got.KexAlgos[0] != KexCurve25519 {
		t.Errorf("KexAlgos = %v", got.KexAlgos)
	}
	if got.FirstKexPacketFollows {
		t.Error("FirstKexPacketFollows should be false")
	}
}

func TestDisconnectRoundTrip(t *testing.T) {
	m := &DisconnectMsg{Reason: DisconnectByApplication, Description: "bye"}
	got, err := ParseDisconnect(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != m.Reason || got.Description != m.Description {
		t.Errorf("got %+v, want %+v", got, m)
	}
	if got.Error() == "" {
		t.Error("Error() should be non-empty")
	}
}

func TestPaddingInvariants(t *testing.T) {
	for n := 0; n < 300; n++ {
		pad := paddingFor(n)
		if pad < minPadding {
			t.Fatalf("paddingFor(%d) = %d < %d", n, pad, minPadding)
		}
		if (5+n+pad)%blockSize != 0 {
			t.Fatalf("paddingFor(%d) = %d: total %d not multiple of %d", n, pad, 5+n+pad, blockSize)
		}
	}
}

// appendTo appends one packet to buf, the way Conn frames a write.
func appendTo(buf *bytes.Buffer, c packetCipher, seq uint32, payload []byte) error {
	b, err := c.appendPacket(buf.AvailableBuffer(), seq, payload)
	buf.Write(b)
	return err
}

// framePacket frames payload as one unencrypted packet.
func framePacket(payload []byte) ([]byte, error) { return appendFrame(nil, payload) }

func TestPlainCipherRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := &plainCipher{}
	r := &plainCipher{}
	payloads := [][]byte{{1}, []byte("hello world"), bytes.Repeat([]byte{0xab}, 1000)}
	for i, p := range payloads {
		if err := appendTo(&buf, w, uint32(i), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		got, err := r.readPacket(&buf, uint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("packet %d: got %x, want %x", i, got, p)
		}
	}
}

func TestCTRCipherRoundTrip(t *testing.T) {
	key := make([]byte, 16)
	iv := make([]byte, 16)
	mac := make([]byte, 32)
	rnd := rand.New(rand.NewSource(1))
	rnd.Read(key)
	rnd.Read(iv)
	rnd.Read(mac)

	enc, err := newCTRCipher(CipherAES128CTR, MACHmacSHA256, key, iv, mac)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := newCTRCipher(CipherAES128CTR, MACHmacSHA256, key, iv, mac)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	payloads := make([][]byte, 20)
	for i := range payloads {
		p := make([]byte, 1+rnd.Intn(500))
		rnd.Read(p)
		payloads[i] = p
		if err := appendTo(&buf, enc, uint32(i), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		got, err := dec.readPacket(&buf, uint32(i))
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Errorf("packet %d mismatch", i)
		}
	}
}

func TestCTRCipherDetectsTampering(t *testing.T) {
	key := make([]byte, 16)
	iv := make([]byte, 16)
	mac := make([]byte, 32)
	enc, _ := newCTRCipher(CipherAES128CTR, MACHmacSHA256, key, iv, mac)
	dec, _ := newCTRCipher(CipherAES128CTR, MACHmacSHA256, key, iv, mac)

	var buf bytes.Buffer
	if err := appendTo(&buf, enc, 0, []byte("attack at dawn")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[7] ^= 0x01 // flip a ciphertext bit
	if _, err := dec.readPacket(bytes.NewReader(raw), 0); err == nil {
		t.Error("tampered packet should fail MAC verification")
	}
}

func TestAES256SHA512CipherRoundTrip(t *testing.T) {
	key := make([]byte, 32)
	iv := make([]byte, 16)
	mac := make([]byte, 64)
	rnd := rand.New(rand.NewSource(2))
	rnd.Read(key)
	rnd.Read(iv)
	rnd.Read(mac)
	enc, err := newCTRCipher(CipherAES256CTR, MACHmacSHA512, key, iv, mac)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := newCTRCipher(CipherAES256CTR, MACHmacSHA512, key, iv, mac)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	p := []byte("over the stronger suite")
	if err := appendTo(&buf, enc, 3, p); err != nil {
		t.Fatal(err)
	}
	got, err := dec.readPacket(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Error("aes256/sha512 round trip failed")
	}
	// Unsupported names are rejected.
	if _, err := newCTRCipher("3des-cbc", MACHmacSHA256, key[:16], iv, mac); err == nil {
		t.Error("unsupported cipher accepted")
	}
	if _, err := newCTRCipher(CipherAES128CTR, "hmac-md5", key[:16], iv, mac); err == nil {
		t.Error("unsupported MAC accepted")
	}
}

func TestCTRCipherDetectsWrongSequence(t *testing.T) {
	key := make([]byte, 16)
	iv := make([]byte, 16)
	mac := make([]byte, 32)
	enc, _ := newCTRCipher(CipherAES128CTR, MACHmacSHA256, key, iv, mac)
	dec, _ := newCTRCipher(CipherAES128CTR, MACHmacSHA256, key, iv, mac)

	var buf bytes.Buffer
	if err := appendTo(&buf, enc, 5, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.readPacket(&buf, 6); err == nil {
		t.Error("wrong sequence number should fail MAC verification")
	}
}

func TestDeriveKeyLengths(t *testing.T) {
	k := []byte{1, 2, 3}
	h := []byte{4, 5, 6}
	sid := []byte{7, 8, 9}
	for _, n := range []int{1, 16, 31, 32, 33, 64, 100} {
		got := deriveKey(k, h, sid, 'A', n)
		if len(got) != n {
			t.Errorf("deriveKey length %d: got %d", n, len(got))
		}
	}
	// Prefix property: longer derivations extend shorter ones.
	short := deriveKey(k, h, sid, 'A', 16)
	long := deriveKey(k, h, sid, 'A', 64)
	if !bytes.Equal(short, long[:16]) {
		t.Error("deriveKey should have the prefix property")
	}
	// Different tags differ.
	if bytes.Equal(deriveKey(k, h, sid, 'A', 16), deriveKey(k, h, sid, 'B', 16)) {
		t.Error("different tags must derive different keys")
	}
}

func TestHostKeySignVerify(t *testing.T) {
	hk, err := GenerateHostKey()
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("exchange hash")
	sig := hk.Sign(data)
	if err := VerifyHostSignature(hk.PublicBlob(), sig, data); err != nil {
		t.Errorf("valid signature rejected: %v", err)
	}
	if err := VerifyHostSignature(hk.PublicBlob(), sig, []byte("other")); err == nil {
		t.Error("signature over wrong data accepted")
	}
	other, _ := GenerateHostKey()
	if err := VerifyHostSignature(other.PublicBlob(), sig, data); err == nil {
		t.Error("signature from wrong key accepted")
	}
}

func TestHostKeyFromSeedDeterministic(t *testing.T) {
	seed := bytes.Repeat([]byte{0x42}, 32)
	a, err := HostKeyFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HostKeyFromSeed(seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.PublicBlob(), b.PublicBlob()) {
		t.Error("same seed must give same key")
	}
	if _, err := HostKeyFromSeed([]byte("short")); err == nil {
		t.Error("short seed should be rejected")
	}
}

func TestMsgNameTable(t *testing.T) {
	known := []byte{
		MsgDisconnect, MsgIgnore, MsgUnimplemented, MsgDebug,
		MsgServiceRequest, MsgServiceAccept, MsgKexInit, MsgNewKeys,
		MsgKexECDHInit, MsgKexECDHReply, MsgUserauthRequest,
		MsgUserauthFailure, MsgUserauthSuccess, MsgUserauthBanner,
		MsgGlobalRequest, MsgRequestSuccess, MsgRequestFailure,
		MsgChannelOpen, MsgChannelOpenConfirmation, MsgChannelOpenFailure,
		MsgChannelWindowAdjust, MsgChannelData, MsgChannelExtendedData,
		MsgChannelEOF, MsgChannelClose, MsgChannelRequest,
		MsgChannelSuccess, MsgChannelFailure,
	}
	seen := map[string]bool{}
	for _, m := range known {
		name := MsgName(m)
		if name == "" || name == fmt.Sprintf("SSH_MSG_%d", m) {
			t.Errorf("message %d has no symbolic name", m)
		}
		if seen[name] {
			t.Errorf("duplicate name %q", name)
		}
		seen[name] = true
	}
	if got := MsgName(250); got != "SSH_MSG_250" {
		t.Errorf("unknown message name = %q", got)
	}
}
