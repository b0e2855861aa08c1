package sshwire

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// HostKey wraps an ed25519 private key in the ssh-ed25519 wire formats.
type HostKey struct {
	priv ed25519.PrivateKey
}

// GenerateHostKey creates a fresh ed25519 host key.
func GenerateHostKey() (*HostKey, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sshwire: generating host key: %w", err)
	}
	return &HostKey{priv: priv}, nil
}

// HostKeyFromSeed derives a deterministic host key from a 32-byte seed.
// The honeynet simulator uses this so each honeypot node presents a stable
// identity across restarts without persisting key files.
func HostKeyFromSeed(seed []byte) (*HostKey, error) {
	if len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("sshwire: host key seed must be %d bytes, got %d", ed25519.SeedSize, len(seed))
	}
	return &HostKey{priv: ed25519.NewKeyFromSeed(seed)}, nil
}

// PublicBlob returns the ssh-ed25519 public key blob:
// string "ssh-ed25519" || string key.
func (k *HostKey) PublicBlob() []byte {
	pub := k.priv.Public().(ed25519.PublicKey)
	b := NewBuilder(19 + ed25519.PublicKeySize + 8)
	b.StringS(HostKeyEd25519)
	b.String(pub)
	return b.Bytes()
}

// Sign signs data and returns the SSH signature blob:
// string "ssh-ed25519" || string signature.
func (k *HostKey) Sign(data []byte) []byte {
	sig := ed25519.Sign(k.priv, data)
	b := NewBuilder(19 + len(sig) + 8)
	b.StringS(HostKeyEd25519)
	b.String(sig)
	return b.Bytes()
}

// VerifyHostSignature checks an ssh-ed25519 signature blob made by the
// owner of the given public key blob over data.
func VerifyHostSignature(pubBlob, sigBlob, data []byte) error {
	pr := NewReader(pubBlob)
	if alg := pr.StringS(); alg != HostKeyEd25519 {
		return fmt.Errorf("sshwire: unsupported host key algorithm %q", alg)
	}
	pub := pr.String()
	if pr.Err() != nil || len(pub) != ed25519.PublicKeySize {
		return errors.New("sshwire: malformed host key blob")
	}
	sr := NewReader(sigBlob)
	if alg := sr.StringS(); alg != HostKeyEd25519 {
		return fmt.Errorf("sshwire: unsupported signature algorithm %q", alg)
	}
	sig := sr.String()
	if sr.Err() != nil {
		return errors.New("sshwire: malformed signature blob")
	}
	if !ed25519.Verify(ed25519.PublicKey(pub), data, sig) {
		return errors.New("sshwire: host key signature verification failed")
	}
	return nil
}

// kexResult carries everything key exchange produces.
type kexResult struct {
	// K is the shared secret (raw X25519 output; encoded as mpint where
	// the protocol requires).
	K []byte
	// H is the exchange hash.
	H []byte
	// HostKeyBlob is the server's public host key blob.
	HostKeyBlob []byte
}

// exchangeHashInputs captures the transcript values hashed into H for
// curve25519-sha256 (RFC 8731 section 3.1, via RFC 5656 section 4).
type exchangeHashInputs struct {
	clientVersion string
	serverVersion string
	clientKexInit []byte
	serverKexInit []byte
	hostKeyBlob   []byte
	clientPub     []byte
	serverPub     []byte
	sharedSecret  []byte
}

func (in *exchangeHashInputs) hash() []byte {
	b := NewBuilder(512)
	b.StringS(in.clientVersion)
	b.StringS(in.serverVersion)
	b.String(in.clientKexInit)
	b.String(in.serverKexInit)
	b.String(in.hostKeyBlob)
	b.String(in.clientPub)
	b.String(in.serverPub)
	b.Mpint(in.sharedSecret)
	sum := sha256.Sum256(b.Bytes())
	return sum[:]
}

// kexServer runs the server side of curve25519-sha256: it consumes the
// client's SSH_MSG_KEX_ECDH_INIT payload and returns the reply payload
// plus the key exchange result.
func kexServer(hostKey *HostKey, in exchangeHashInputs, ecdhInitPayload []byte) ([]byte, *kexResult, error) {
	r := NewReader(ecdhInitPayload)
	if t := r.Byte(); t != MsgKexECDHInit {
		return nil, nil, fmt.Errorf("sshwire: expected KEX_ECDH_INIT, got %s", MsgName(t))
	}
	clientPubBytes := r.String()
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("sshwire: malformed KEX_ECDH_INIT: %w", err)
	}

	curve := ecdh.X25519()
	clientPub, err := curve.NewPublicKey(clientPubBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("sshwire: invalid client ECDH key: %w", err)
	}
	serverPriv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("sshwire: generating ECDH key: %w", err)
	}
	secret, err := serverPriv.ECDH(clientPub)
	if err != nil {
		return nil, nil, fmt.Errorf("sshwire: ECDH: %w", err)
	}

	in.hostKeyBlob = hostKey.PublicBlob()
	in.clientPub = clientPubBytes
	in.serverPub = serverPriv.PublicKey().Bytes()
	in.sharedSecret = secret
	h := in.hash()

	reply := NewBuilder(256)
	reply.Byte(MsgKexECDHReply)
	reply.String(in.hostKeyBlob)
	reply.String(in.serverPub)
	reply.String(hostKey.Sign(h))

	return reply.Bytes(), &kexResult{K: secret, H: h, HostKeyBlob: in.hostKeyBlob}, nil
}

// kexClientInit generates the client's ephemeral key and the
// SSH_MSG_KEX_ECDH_INIT payload.
func kexClientInit() (*ecdh.PrivateKey, []byte, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("sshwire: generating ECDH key: %w", err)
	}
	b := NewBuilder(40)
	b.Byte(MsgKexECDHInit)
	b.String(priv.PublicKey().Bytes())
	return priv, b.Bytes(), nil
}

// kexClientFinish consumes the server's SSH_MSG_KEX_ECDH_REPLY and
// verifies the host signature. The result owns its host key blob: the
// reply is a slice of the packet reader's buffer, which the next read
// overwrites.
func kexClientFinish(priv *ecdh.PrivateKey, in exchangeHashInputs, replyPayload []byte) (*kexResult, error) {
	r := NewReader(replyPayload)
	if t := r.Byte(); t != MsgKexECDHReply {
		return nil, fmt.Errorf("sshwire: expected KEX_ECDH_REPLY, got %s", MsgName(t))
	}
	hostKeyBlob := r.String()
	serverPubBytes := r.String()
	sigBlob := r.String()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sshwire: malformed KEX_ECDH_REPLY: %w", err)
	}

	serverPub, err := ecdh.X25519().NewPublicKey(serverPubBytes)
	if err != nil {
		return nil, fmt.Errorf("sshwire: invalid server ECDH key: %w", err)
	}
	secret, err := priv.ECDH(serverPub)
	if err != nil {
		return nil, fmt.Errorf("sshwire: ECDH: %w", err)
	}

	in.hostKeyBlob = hostKeyBlob
	in.clientPub = priv.PublicKey().Bytes()
	in.serverPub = serverPubBytes
	in.sharedSecret = secret
	h := in.hash()

	if err := VerifyHostSignature(hostKeyBlob, sigBlob, h); err != nil {
		return nil, err
	}
	return &kexResult{K: secret, H: h, HostKeyBlob: bytes.Clone(hostKeyBlob)}, nil
}
