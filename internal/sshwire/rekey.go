package sshwire

import (
	"bytes"
	"errors"
	"fmt"
)

// Rekeying (RFC 4253 section 9). Either side may initiate a new key
// exchange at any time after the initial handshake by sending
// SSH_MSG_KEXINIT; application packets are forbidden between a side's
// KEXINIT and its NEWKEYS. The session identifier keeps the value of the
// first exchange hash.
//
// The read loop (ReadPacket) detects an inbound KEXINIT and completes the
// exchange inline while a condition variable gates application writes.

// RequestRekey initiates a key re-exchange. It returns once our KEXINIT
// is on the wire; the exchange completes inside the connection's read
// loop (so the caller — or the Mux — must keep reading). Calling it
// while a rekey is already in flight is a no-op.
func (c *Conn) RequestRekey() error {
	init, err := c.makeKexInit()
	if err != nil {
		return err
	}
	initBytes := init.Marshal()

	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.rekeying {
		return nil
	}
	c.rekeying = true
	c.ourPendingInit = initBytes
	if err = c.writeLocked(initBytes); err != nil {
		c.rekeying = false
		c.ourPendingInit = nil
		c.wcond.Broadcast()
	}
	return err
}

// beginPeerRekey marks the connection as rekeying (peer initiated) and
// sends our KEXINIT if we have not already sent one. It returns our
// KEXINIT payload.
func (c *Conn) beginPeerRekey() ([]byte, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.rekeying && c.ourPendingInit != nil {
		return c.ourPendingInit, nil
	}
	init, err := c.makeKexInit()
	if err != nil {
		return nil, err
	}
	initBytes := init.Marshal()
	c.rekeying = true
	c.ourPendingInit = initBytes
	if err := c.writeLocked(initBytes); err != nil {
		return nil, err
	}
	return initBytes, nil
}

// writeKexPacket sends a packet during a rekey, bypassing the
// application-write gate.
func (c *Conn) writeKexPacket(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(payload)
}

// readKexPacket reads the next packet during a rekey. The caller already
// holds rmu (we are inside ReadPacket). IGNORE/DEBUG are skipped; any
// non-kex message is a protocol error.
func (c *Conn) readKexPacket() ([]byte, error) {
	for {
		payload, err := c.reader.readPacket(c.br, c.readSeq)
		c.readSeq++
		if err != nil {
			return nil, err
		}
		if len(payload) == 0 {
			return nil, errors.New("sshwire: empty packet during rekey")
		}
		switch payload[0] {
		case MsgIgnore, MsgDebug:
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

// handleRekey completes a key re-exchange after the peer's KEXINIT
// payload arrived on the read path. It is called with rmu held.
func (c *Conn) handleRekey(theirInitBytes []byte) error {
	theirInit, err := ParseKexInit(theirInitBytes)
	if err != nil {
		return err
	}
	ourInitBytes, err := c.beginPeerRekey()
	if err != nil {
		return err
	}
	ourInit, err := ParseKexInit(ourInitBytes)
	if err != nil {
		return err
	}

	var res *kexResult
	var algs negotiatedAlgs
	if c.isServer {
		a, err := negotiateAlgs(theirInit, ourInit)
		if err != nil {
			return err
		}
		algs = a
		if c.hostKey == nil {
			return errors.New("sshwire: server rekey without host key")
		}
		in := exchangeHashInputs{
			clientVersion: c.remoteVersion,
			serverVersion: c.localVersion,
			clientKexInit: theirInitBytes,
			serverKexInit: ourInitBytes,
		}
		ecdhInit, err := c.readKexPacket()
		if err != nil {
			return err
		}
		reply, r, err := kexServer(c.hostKey, in, ecdhInit)
		if err != nil {
			return err
		}
		if err := c.writeKexPacket(reply); err != nil {
			return err
		}
		res = r
	} else {
		a, err := negotiateAlgs(ourInit, theirInit)
		if err != nil {
			return err
		}
		algs = a
		priv, initPayload, err := kexClientInit()
		if err != nil {
			return err
		}
		if err := c.writeKexPacket(initPayload); err != nil {
			return err
		}
		replyPayload, err := c.readKexPacket()
		if err != nil {
			return err
		}
		if replyPayload[0] != MsgKexECDHReply {
			return fmt.Errorf("sshwire: expected KEX_ECDH_REPLY during rekey, got %s", MsgName(replyPayload[0]))
		}
		in := exchangeHashInputs{
			clientVersion: c.localVersion,
			serverVersion: c.remoteVersion,
			clientKexInit: ourInitBytes,
			serverKexInit: theirInitBytes,
		}
		r, err := kexClientFinish(priv, in, replyPayload, c.hostKeyCheck)
		if err != nil {
			return err
		}
		res = r
	}

	// NEWKEYS both ways; the session ID keeps the FIRST exchange hash.
	if err := c.writeKexPacket([]byte{MsgNewKeys}); err != nil {
		return err
	}
	nk, err := c.readKexPacket()
	if err != nil {
		return err
	}
	if nk[0] != MsgNewKeys {
		return fmt.Errorf("sshwire: expected NEWKEYS during rekey, got %s", MsgName(nk[0]))
	}

	c2sKey, c2sIV, c2sMAC := directionKeys(res.K, res.H, c.sessionID, algs.c2sCipher, algs.c2sMAC, 'A', 'C', 'E')
	s2cKey, s2cIV, s2cMAC := directionKeys(res.K, res.H, c.sessionID, algs.s2cCipher, algs.s2cMAC, 'B', 'D', 'F')
	c2s, err := newCTRCipher(algs.c2sCipher, algs.c2sMAC, c2sKey, c2sIV, c2sMAC)
	if err != nil {
		return err
	}
	s2c, err := newCTRCipher(algs.s2cCipher, algs.s2cMAC, s2cKey, s2cIV, s2cMAC)
	if err != nil {
		return err
	}

	c.wmu.Lock()
	if c.isServer {
		c.reader, c.writer = c2s, s2c
	} else {
		c.reader, c.writer = s2c, c2s
	}
	c.algs = algs
	c.hostKeyBlob = bytes.Clone(res.HostKeyBlob)
	c.rekeys++
	c.rekeying = false
	c.ourPendingInit = nil
	c.wcond.Broadcast()
	c.wmu.Unlock()
	return nil
}

// Rekeys reports how many successful re-exchanges have completed.
func (c *Conn) Rekeys() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.rekeys
}
