// Package sshd implements the server side of SSH for one connection
// (RFC 4252 password authentication and RFC 4254 session channels) on
// top of internal/sshwire. It is the protocol engine under the honeypot:
// the caller accepts and admits connections and hands each to
// HandleConn; policy (which logins succeed, what the shell does) is
// injected via callbacks.
package sshd

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"honeynet/internal/sshwire"
)

// ConnMeta describes the authenticated peer of a session.
type ConnMeta struct {
	RemoteAddr    net.Addr
	LocalAddr     net.Addr
	ClientVersion string
	User          string
	SessionID     []byte
}

// A session keeps at most maxEnvPairs env pairs, each of at most
// maxEnvBytes of key and value; an env request past either is refused.
// 128 pairs is OpenSSH's own limit (session.c), and no real client
// sends a variable near 4 KiB.
const (
	maxEnvPairs = 128
	maxEnvBytes = 4 << 10
)

// Session is one accepted session channel after a "shell" or "exec"
// request. Read returns client stdin; Write sends output to the client.
type Session struct {
	Meta    ConnMeta
	Command string // non-empty for exec requests
	IsShell bool
	PTY     bool
	Term    string
	Env     map[string]string

	ch *sshwire.Channel
}

// Read returns data the client typed (stdin).
func (s *Session) Read(p []byte) (int, error) { return s.ch.Read(p) }

// Write sends output to the client.
func (s *Session) Write(p []byte) (int, error) { return s.ch.Write(p) }

// Exit sends the exit status, EOF and CLOSE in one write.
func (s *Session) Exit(status uint32) error { return s.ch.Exit(status) }

// Config parameterizes the server.
type Config struct {
	// HostKey is the server identity. Required.
	HostKey *sshwire.HostKey
	// Version is the SSH banner; defaults to sshwire.DefaultServerVersion.
	Version string
	// Auth decides whether a password login succeeds. Required.
	Auth func(meta ConnMeta, user, password string) bool
	// OnAuthAttempt observes every attempt (for honeypot recording).
	OnAuthAttempt func(meta ConnMeta, user, password string, ok bool)
	// Handler runs each accepted shell/exec session. Required.
	Handler func(s *Session)
	// MaxAuthTries disconnects clients after this many failed attempts.
	// Zero means the OpenSSH default of 6.
	MaxAuthTries int
	// ConnTimeout is the hard deadline for a whole connection, emulating
	// the honeynet's 3-minute session cap. Zero disables it.
	ConnTimeout time.Duration
	// HandshakeTimeout bounds the transport handshake.
	HandshakeTimeout time.Duration
}

func (c *Config) maxTries() int {
	if c.MaxAuthTries > 0 {
		return c.MaxAuthTries
	}
	return 6
}

// Server runs the SSH protocol over connections the caller accepted.
type Server struct {
	cfg Config
}

// New validates cfg and returns a Server.
func New(cfg Config) (*Server, error) {
	if cfg.HostKey == nil {
		return nil, errors.New("sshd: Config.HostKey is required")
	}
	if cfg.Auth == nil {
		return nil, errors.New("sshd: Config.Auth is required")
	}
	if cfg.Handler == nil {
		return nil, errors.New("sshd: Config.Handler is required")
	}
	return &Server{cfg: cfg}, nil
}

// HandleConn runs the complete SSH lifecycle for one TCP connection:
// handshake, authentication, and session dispatch. It returns when the
// connection ends.
func (s *Server) HandleConn(nc net.Conn) error {
	defer nc.Close()
	if s.cfg.ConnTimeout > 0 {
		_ = nc.SetDeadline(time.Now().Add(s.cfg.ConnTimeout))
	}
	tcfg := &sshwire.Config{
		Version:          s.cfg.Version,
		HostKey:          s.cfg.HostKey,
		HandshakeTimeout: s.cfg.HandshakeTimeout,
	}
	conn, err := sshwire.ServerHandshake(nc, tcfg)
	if err != nil {
		return fmt.Errorf("sshd: handshake: %w", err)
	}
	// Re-apply the overall deadline: the handshake may have cleared it.
	if s.cfg.ConnTimeout > 0 {
		_ = nc.SetDeadline(time.Now().Add(s.cfg.ConnTimeout))
	}
	if _, err := conn.AcceptService("ssh-userauth"); err != nil {
		return err
	}
	meta := ConnMeta{
		RemoteAddr:    conn.RemoteAddr(),
		LocalAddr:     conn.LocalAddr(),
		ClientVersion: conn.RemoteVersion(),
		SessionID:     conn.SessionID(),
	}
	user, err := s.authenticate(conn, &meta)
	if err != nil {
		return err
	}
	meta.User = user
	return s.serveConnection(conn, meta)
}

// authenticate runs the ssh-userauth protocol until success or failure.
func (s *Server) authenticate(conn *sshwire.Conn, meta *ConnMeta) (string, error) {
	tries := 0
	for {
		payload, err := conn.ReadPacket()
		if err != nil {
			return "", err
		}
		r := sshwire.NewReader(payload)
		if t := r.Byte(); t != sshwire.MsgUserauthRequest {
			return "", fmt.Errorf("sshd: expected USERAUTH_REQUEST, got %s", sshwire.MsgName(t))
		}
		user := r.StringS()
		service := r.StringS()
		method := r.StringS()
		if service != "ssh-connection" {
			_ = conn.Disconnect(sshwire.DisconnectByApplication, "unsupported service")
			return "", fmt.Errorf("sshd: unsupported service %q", service)
		}
		switch method {
		case "password":
			r.Bool() // FALSE: not a password change
			password := r.StringS()
			if err := r.Err(); err != nil {
				return "", err
			}
			ok := s.cfg.Auth(*meta, user, password)
			if s.cfg.OnAuthAttempt != nil {
				s.cfg.OnAuthAttempt(*meta, user, password, ok)
			}
			if ok {
				if err := conn.WritePacket([]byte{sshwire.MsgUserauthSuccess}); err != nil {
					return "", err
				}
				return user, nil
			}
			tries++
			if tries >= s.cfg.maxTries() {
				_ = conn.Disconnect(sshwire.DisconnectNoMoreAuthMethods, "too many authentication failures")
				return "", errors.New("sshd: too many authentication failures")
			}
			if err := writeAuthFailure(conn); err != nil {
				return "", err
			}
		case "none":
			if err := writeAuthFailure(conn); err != nil {
				return "", err
			}
		default:
			if err := writeAuthFailure(conn); err != nil {
				return "", err
			}
		}
	}
}

func writeAuthFailure(conn *sshwire.Conn) error {
	b := sshwire.NewBuilder(32)
	b.Byte(sshwire.MsgUserauthFailure)
	b.NameList([]string{"password"})
	b.Bool(false)
	return conn.WritePacket(b.Bytes())
}

// serveConnection dispatches session channels until the connection ends.
func (s *Server) serveConnection(conn *sshwire.Conn, meta ConnMeta) error {
	mux := sshwire.NewMux(conn)
	var wg sync.WaitGroup
	for nc := range mux.Incoming() {
		if nc.ChanType != "session" {
			_ = nc.Reject(sshwire.OpenUnknownChannelType, "unsupported channel type")
			continue
		}
		ch, err := nc.Accept()
		if err != nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveSession(ch, meta)
		}()
	}
	wg.Wait()
	err := mux.Wait()
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// serveSession processes channel requests on one session channel and
// invokes the handler on shell/exec.
func (s *Server) serveSession(ch *sshwire.Channel, meta ConnMeta) {
	sess := &Session{Meta: meta, Env: map[string]string{}, ch: ch}
	started := false
	for req := range ch.Requests() {
		switch req.Type {
		case "pty-req":
			r := sshwire.NewReader(req.Payload)
			sess.PTY = true
			sess.Term = r.StringS()
			_ = req.Reply(true)
		case "env":
			r := sshwire.NewReader(req.Payload)
			k := r.StringS()
			v := r.StringS()
			_, seen := sess.Env[k]
			ok := r.Err() == nil && len(k)+len(v) <= maxEnvBytes && (seen || len(sess.Env) < maxEnvPairs)
			if ok {
				sess.Env[k] = v
			}
			_ = req.Reply(ok)
		case "shell":
			if started {
				_ = req.Reply(false)
				continue
			}
			started = true
			sess.IsShell = true
			_ = req.Reply(true)
			s.cfg.Handler(sess)
			return
		case "exec":
			if started {
				_ = req.Reply(false)
				continue
			}
			started = true
			r := sshwire.NewReader(req.Payload)
			sess.Command = r.StringS()
			_ = req.Reply(true)
			s.cfg.Handler(sess)
			return
		case "window-change", "signal":
			_ = req.Reply(true)
		case "subsystem":
			// sftp and friends: not emulated (this is exactly the gap the
			// paper describes — files moved via sftp/scp are not captured).
			_ = req.Reply(false)
		default:
			_ = req.Reply(false)
		}
	}
}
