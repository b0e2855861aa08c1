package sshwire

import (
	"bytes"
	"errors"
	"fmt"
)

// Key exchange (RFC 4253 sections 7 to 9). The handshake's exchange and
// every rekey run the same code: either side sends SSH_MSG_KEXINIT, and
// the read path (ReadPacket, or the handshake before it) hands the
// peer's KEXINIT to kex, which completes the exchange inline while a
// condition variable gates application writes; application packets are
// forbidden between a side's KEXINIT and its NEWKEYS. The session
// identifier keeps the value of the first exchange hash.

// RequestRekey initiates a key re-exchange. It returns once our KEXINIT
// is on the wire; the exchange completes inside the connection's read
// loop (so the caller — or the Mux — must keep reading). Calling it
// while a rekey is already in flight is a no-op.
func (c *Conn) RequestRekey() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.sendKexInitLocked()
}

// sendKexInitLocked sends our KEXINIT unless one is already pending and
// holds application writes until kex installs the new keys. The caller
// holds wmu.
func (c *Conn) sendKexInitLocked() error {
	if c.ourPendingInit != nil {
		return nil
	}
	m, err := c.makeKexInit()
	if err != nil {
		return err
	}
	raw := m.Marshal()
	if err := c.writeLocked(raw); err != nil {
		return err
	}
	c.ourPendingInit, c.ourPendingMsg = raw, m
	return nil
}

// writeKexPacket sends a packet during a key exchange, bypassing the
// application-write gate.
func (c *Conn) writeKexPacket(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(payload)
}

// readKexPacket reads the next packet during a key exchange. The caller
// holds rmu. IGNORE/DEBUG are skipped and DISCONNECT is returned as an
// error.
func (c *Conn) readKexPacket() ([]byte, error) {
	for {
		payload, err := c.reader.readPacket(c.br, c.readSeq)
		c.readSeq++
		if err != nil {
			return nil, err
		}
		if len(payload) == 0 {
			return nil, errors.New("sshwire: empty packet during key exchange")
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

// kex runs one key exchange from the peer's KEXINIT payload, which the
// caller has just read and holds rmu for. It sends our KEXINIT if this
// side has not, negotiates, runs the role's ECDH step, exchanges NEWKEYS
// and installs the new ciphers. The first exchange sets the session ID;
// each later one counts as a rekey.
func (c *Conn) kex(theirInit []byte) error {
	theirInit = bytes.Clone(theirInit) // hashed after the next read
	theirMsg, err := ParseKexInit(theirInit)
	if err != nil {
		return err
	}
	c.wmu.Lock()
	err = c.sendKexInitLocked()
	ourInit, ourMsg := c.ourPendingInit, c.ourPendingMsg
	c.wmu.Unlock()
	if err != nil {
		return err
	}

	in := exchangeHashInputs{
		clientVersion: c.localVersion, serverVersion: c.remoteVersion,
		clientKexInit: ourInit, serverKexInit: theirInit,
	}
	client, server := ourMsg, theirMsg
	if c.isServer {
		in.clientVersion, in.serverVersion = in.serverVersion, in.clientVersion
		in.clientKexInit, in.serverKexInit = in.serverKexInit, in.clientKexInit
		client, server = server, client
	}
	algs, err := negotiateAlgs(client, server)
	if err != nil {
		return err
	}
	res, err := c.ecdh(in)
	if err != nil {
		return err
	}

	if err := c.writeKexPacket([]byte{MsgNewKeys}); err != nil {
		return err
	}
	nk, err := c.readKexPacket()
	if err != nil {
		return err
	}
	if nk[0] != MsgNewKeys {
		return fmt.Errorf("sshwire: expected NEWKEYS, got %s", MsgName(nk[0]))
	}

	first := c.sessionID == nil
	if first {
		c.sessionID = res.H
	}
	// Direction tags per RFC 4253 section 7.2: client-to-server uses
	// 'A' (IV), 'C' (key), 'E' (MAC); server-to-client 'B', 'D', 'F'.
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
	c.hostKeyBlob = res.HostKeyBlob
	if !first {
		c.rekeys++
	}
	c.ourPendingInit, c.ourPendingMsg = nil, nil
	c.wcond.Broadcast()
	c.wmu.Unlock()
	return nil
}

// failKex ends a connection whose key exchange failed: it closes it and
// releases the writers waiting for new keys, whose writes then fail.
func (c *Conn) failKex() {
	c.conn.Close()
	c.wmu.Lock()
	c.ourPendingInit, c.ourPendingMsg = nil, nil
	c.wcond.Broadcast()
	c.wmu.Unlock()
}

// ecdh runs this side's curve25519-sha256 step over the connection: the
// server answers the client's KEX_ECDH_INIT, the client sends it and
// checks the server's reply.
func (c *Conn) ecdh(in exchangeHashInputs) (*kexResult, error) {
	if c.isServer {
		init, err := c.readKexPacket()
		if err != nil {
			return nil, err
		}
		reply, res, err := kexServer(c.hostKey, in, init)
		if err != nil {
			return nil, err
		}
		return res, c.writeKexPacket(reply)
	}
	priv, init, err := kexClientInit()
	if err != nil {
		return nil, err
	}
	if err := c.writeKexPacket(init); err != nil {
		return nil, err
	}
	reply, err := c.readKexPacket()
	if err != nil {
		return nil, err
	}
	return kexClientFinish(priv, in, reply)
}

// Rekeys reports how many successful re-exchanges have completed.
func (c *Conn) Rekeys() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.rekeys
}
