// Package telnetd implements the Telnet (RFC 854) side of the honeypot
// for one connection: option negotiation refusal, a login/password
// prompt, and a line-oriented shell hookup. The caller accepts and
// admits connections and hands each to HandleConn. The honeynet in the
// paper listens on both 22 and 23 with the same authentication rules.
package telnetd

import (
	"bufio"
	"errors"
	"io"
	"net"
	"time"
)

// Telnet protocol bytes.
const (
	iac  = 255
	dont = 254
	do   = 253
	wont = 252
	will = 251
	sb   = 250
	se   = 240
)

// Config parameterizes the Telnet server.
type Config struct {
	// Banner is printed before the login prompt.
	Banner string
	// Auth decides whether a login succeeds. Required.
	Auth func(user, password string) bool
	// OnAuthAttempt observes every attempt.
	OnAuthAttempt func(user, password string, ok bool)
	// Handler runs the post-login interaction over rw. Required.
	Handler func(user string, rw io.ReadWriter)
	// ConnTimeout is the hard session deadline (the honeynet's 3 min).
	ConnTimeout time.Duration
}

// maxAuthTries caps login attempts per connection, as classic telnetd.
const maxAuthTries = 3

// Server runs the Telnet protocol over connections the caller accepted.
type Server struct {
	cfg Config
}

// New validates cfg and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Auth == nil || cfg.Handler == nil {
		return nil, errors.New("telnetd: Auth and Handler are required")
	}
	return &Server{cfg: cfg}, nil
}

// conn wraps a net.Conn with telnet IAC stripping on read and IAC
// escaping on write.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader
	one [1]byte // readLine's byte
}

// Read returns decoded NVT data, transparently answering IAC
// negotiation sequences.
func (c *conn) Read(p []byte) (int, error) {
	n := 0
	for n == 0 {
		b, err := c.br.ReadByte()
		if err != nil {
			return n, err
		}
		if b != iac {
			p[n] = b
			n++
			// Drain whatever is immediately available without blocking.
			for n < len(p) && c.br.Buffered() > 0 {
				b, err = c.br.ReadByte()
				if err != nil {
					return n, err
				}
				if b == iac {
					if err := c.handleIAC(); err != nil {
						return n, err
					}
					continue
				}
				p[n] = b
				n++
			}
			return n, nil
		}
		if err := c.handleIAC(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// handleIAC consumes one IAC sequence (the IAC byte itself already read)
// and refuses every option: we are a dumb NVT.
func (c *conn) handleIAC() error {
	cmd, err := c.br.ReadByte()
	if err != nil {
		return err
	}
	switch cmd {
	case do, dont:
		opt, err := c.br.ReadByte()
		if err != nil {
			return err
		}
		if cmd == do {
			_, err = c.nc.Write([]byte{iac, wont, opt})
		}
		return err
	case will, wont:
		opt, err := c.br.ReadByte()
		if err != nil {
			return err
		}
		if cmd == will {
			_, err = c.nc.Write([]byte{iac, dont, opt})
		}
		return err
	case sb:
		// Skip subnegotiation until IAC SE.
		for {
			b, err := c.br.ReadByte()
			if err != nil {
				return err
			}
			if b == iac {
				b2, err := c.br.ReadByte()
				if err != nil {
					return err
				}
				if b2 == se {
					return nil
				}
			}
		}
	case iac:
		// Escaped 0xFF data byte: rare in login flows; drop it.
		return nil
	default:
		return nil
	}
}

// Write sends data to the peer, doubling literal IAC (0xFF) bytes as
// the protocol requires.
func (c *conn) Write(p []byte) (int, error) {
	// Escape IAC bytes in output.
	start := 0
	written := 0
	for i, b := range p {
		if b == iac {
			if _, err := c.nc.Write(p[start : i+1]); err != nil {
				return written, err
			}
			if _, err := c.nc.Write([]byte{iac}); err != nil {
				return written, err
			}
			written = i + 1
			start = i + 1
		}
	}
	if start < len(p) {
		n, err := c.nc.Write(p[start:])
		return written + n, err
	}
	return written, nil
}

// maxLoginLine caps a login or password line; the rest of a longer
// line is read and dropped up to its newline.
const maxLoginLine = 4096

// readLine reads a CR/LF-terminated line, tolerating both CRLF and bare
// LF endings (and the CR NUL form some clients send). Past maxLoginLine
// bytes the rest of the line is discarded, so it cannot answer the
// next prompt.
func (c *conn) readLine() (string, error) {
	var buf []byte
	for {
		if _, err := c.Read(c.one[:]); err != nil {
			return string(buf), err
		}
		switch b := c.one[0]; {
		case b == '\n':
			return string(buf), nil
		case b == '\r', b == 0, len(buf) == maxLoginLine:
			// swallow
		default:
			buf = append(buf, b)
		}
	}
}

// HandleConn runs the Telnet lifecycle for one connection: negotiation,
// login, handler.
func (s *Server) HandleConn(nc net.Conn) error {
	defer nc.Close()
	if s.cfg.ConnTimeout > 0 {
		_ = nc.SetDeadline(time.Now().Add(s.cfg.ConnTimeout))
	}
	c := &conn{nc: nc, br: bufio.NewReader(nc)}

	// Ask the peer to not echo locally, as BusyBox telnetd does.
	if _, err := nc.Write([]byte{iac, will, 1, iac, will, 3}); err != nil {
		return err
	}
	if s.cfg.Banner != "" {
		if _, err := io.WriteString(c, s.cfg.Banner+"\r\n"); err != nil {
			return err
		}
	}
	for try := 0; try < maxAuthTries; try++ {
		if _, err := io.WriteString(c, "login: "); err != nil {
			return err
		}
		user, err := c.readLine()
		if err != nil {
			return err
		}
		if _, err := io.WriteString(c, "Password: "); err != nil {
			return err
		}
		pass, err := c.readLine()
		if err != nil {
			return err
		}
		ok := s.cfg.Auth(user, pass)
		if s.cfg.OnAuthAttempt != nil {
			s.cfg.OnAuthAttempt(user, pass, ok)
		}
		if ok {
			s.cfg.Handler(user, c)
			return nil
		}
		if _, err := io.WriteString(c, "\r\nLogin incorrect\r\n"); err != nil {
			return err
		}
	}
	return errors.New("telnetd: too many login failures")
}
