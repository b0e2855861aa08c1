// Package telnetd serves one Telnet (RFC 854) connection for the
// honeypot: one decoder for the network virtual terminal, a fixed option
// table, the login prompts and a line-oriented shell hookup. The caller
// accepts and admits connections and hands each to Serve. The honeynet
// in the paper listens on both 22 and 23 with the same login rules.
package telnetd

import (
	"bufio"
	"cmp"
	"errors"
	"io"
	"net"
	"time"
)

// Telnet commands (RFC 854), and the two options the server offers:
// ECHO (RFC 857) and SUPPRESS-GO-AHEAD (RFC 858).
const (
	se, sb, will, wont, do, dont, iac = 240, 250, 251, 252, 253, 254, 255
	optEcho, optSGA                   = 1, 3
)

// banner is printed before the first login prompt.
const banner = "Debian GNU/Linux 11"

// Config parameterizes one Telnet connection.
type Config struct {
	// Auth decides whether a login succeeds. Required.
	Auth func(user, password string) bool
	// OnAuthAttempt, if set, observes every attempt.
	OnAuthAttempt func(user, password string, ok bool)
	// Handler runs the post-login interaction over rw, from one
	// goroutine. Required. Reads return the peer's data with each line
	// end as one '\n'.
	Handler func(user string, rw io.ReadWriter)
	// ConnTimeout is the hard session deadline (the honeynet's 3 min).
	ConnTimeout time.Duration
}

// maxAuthTries caps login attempts per connection, as classic telnetd.
const maxAuthTries = 3

// maxLoginLine caps a login or password line; the rest of a longer
// line is read and dropped up to its line end.
const maxLoginLine = 4096

const (
	sData  = iota // the decoder's states: data
	sCR           // data, right after a CR
	sIAC          // after an IAC
	sOpt          // after IAC WILL, WONT, DO or DONT: the option is next
	sSB           // inside a subnegotiation
	sSBIAC        // after an IAC inside a subnegotiation
)

// conn is one connection's network virtual terminal: Read decodes the
// peer's bytes, Write escapes ours. It is used from one goroutine.
type conn struct {
	nc    net.Conn
	br    *bufio.Reader
	state byte
	verb  byte             // the WILL, WONT, DO or DONT before sOpt's option
	off   [optSGA + 1]bool // an offered option the peer turned off
	quiet bool             // reading a password: echo its line end only
	out   []byte           // owed to the peer: replies, echo, escaped output
}

// step feeds one byte from the peer through the decoder and returns the
// data byte it completes, if any. IAC IAC is a 0xFF data byte. A CR or
// an LF is a line end, '\n', and the LF after a CR belongs to the CR's;
// NUL is the NVT's no-op and keeps a CR's state, so CR NUL is a line
// end too, however the bytes are split across reads.
func (c *conn) step(b byte) (byte, bool) {
	switch c.state {
	case sIAC:
		c.state = sData
		switch b {
		case iac:
			return iac, true
		case will, wont, do, dont:
			c.state, c.verb = sOpt, b
		case sb:
			c.state = sSB
		}
	case sOpt:
		// The option table. ECHO and SGA start on, as offered, and a DO or
		// DONT for either is answered only when it changes the option
		// (RFC 1143), so the DO that accepts an offer needs no reply. A
		// DO for any other option is refused with WONT, a WILL with DONT.
		c.state = sData
		switch {
		case (b == optEcho || b == optSGA) && (c.verb == do || c.verb == dont):
			if off := c.verb == dont; c.off[b] != off {
				c.off[b] = off
				c.out = append(c.out, iac, c.verb-2, b) // DO → WILL, DONT → WONT
			}
		case c.verb == do:
			c.out = append(c.out, iac, wont, b)
		case c.verb == will:
			c.out = append(c.out, iac, dont, b)
		}
	case sSB:
		if b == iac {
			c.state = sSBIAC
		}
	case sSBIAC:
		c.state = sSB
		if b == se {
			c.state = sData
		}
	default: // sData, sCR
		switch {
		case b == 0:
		case b == '\n' && c.state == sCR:
			c.state = sData
		case b == iac:
			c.state = sIAC
		default:
			c.state = sData
			if b == '\r' {
				c.state, b = sCR, '\n'
			}
			return b, true
		}
	}
	return 0, false
}

// next returns the next data byte from the peer, echoed while ECHO is
// on, and false if none has arrived and wait is false. What the decoder
// owes the peer is written before it would block.
func (c *conn) next(wait bool) (byte, bool, error) {
	for wait || c.br.Buffered() > 0 {
		if c.br.Buffered() == 0 {
			if err := c.flush(); err != nil {
				return 0, false, err
			}
		}
		b, err := c.br.ReadByte()
		if err != nil {
			return 0, false, err
		}
		if d, ok := c.step(b); ok {
			if !c.off[optEcho] && (!c.quiet || d == '\n') {
				if d == '\n' {
					c.out = append(c.out, '\r')
				}
				c.put(d)
			}
			return d, true, nil
		}
	}
	return 0, false, nil
}

// Read returns the peer's decoded data: it waits for one byte, then
// takes what has already arrived. Replies and echo go out first.
func (c *conn) Read(p []byte) (n int, err error) {
	for ok := true; ok && err == nil && n < len(p); {
		if p[n], ok, err = c.next(n == 0); ok {
			n++
		}
	}
	return n, cmp.Or(err, c.flush())
}

// Write sends p, each IAC doubled, in one write with all else owed.
func (c *conn) Write(p []byte) (int, error) {
	c.put(p...)
	return len(p), c.flush()
}

// put queues data bytes for the peer, escaping IAC.
func (c *conn) put(p ...byte) {
	for _, b := range p {
		if c.out = append(c.out, b); b == iac {
			c.out = append(c.out, iac)
		}
	}
}

// flush writes what is owed to the peer, and drops a buffer a large write grew.
func (c *conn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.nc.Write(c.out)
	if c.out = c.out[:0]; cap(c.out) > 64<<10 {
		c.out = nil
	}
	return err
}

// ask writes prompt and reads the line that answers it, echoing only
// its line end if quiet. Past maxLoginLine bytes the rest of the line
// is dropped, so it cannot answer the next prompt.
func (c *conn) ask(prompt string, quiet bool) (string, error) {
	if _, err := io.WriteString(c, prompt); err != nil {
		return "", err
	}
	c.quiet = quiet
	defer func() { c.quiet = false }()
	var line []byte
	for {
		b, _, err := c.next(true)
		if err != nil || b == '\n' {
			return string(line), err
		}
		if len(line) < maxLoginLine {
			line = append(line, b)
		}
	}
}

// Serve runs the Telnet lifecycle on one connection and closes it: the
// option offers, login, then cfg.Handler.
func Serve(nc net.Conn, cfg Config) error {
	defer nc.Close()
	if cfg.ConnTimeout > 0 {
		_ = nc.SetDeadline(time.Now().Add(cfg.ConnTimeout))
	}
	// Offer to echo and to suppress go-ahead, as BusyBox telnetd does,
	// so the peer neither echoes locally nor waits for a go-ahead.
	c := &conn{nc: nc, br: bufio.NewReader(nc), out: []byte{iac, will, optEcho, iac, will, optSGA}}
	msg := banner + "\r\n"
	for try := 0; try < maxAuthTries; try++ {
		user, err := c.ask(msg+"login: ", false)
		if err != nil {
			return err
		}
		pass, err := c.ask("Password: ", true)
		if err != nil {
			return err
		}
		ok := cfg.Auth(user, pass)
		if cfg.OnAuthAttempt != nil {
			cfg.OnAuthAttempt(user, pass, ok)
		}
		if ok {
			cfg.Handler(user, c)
			return nil
		}
		msg = "\r\nLogin incorrect\r\n"
	}
	_, _ = io.WriteString(c, msg) // the error below says why the session ended
	return errors.New("telnetd: too many login failures")
}
