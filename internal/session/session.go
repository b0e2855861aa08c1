// Package session defines the honeynet's session record — the unit of
// observation throughout the paper — plus the four-way session taxonomy
// of section 3.3 (Scanning / Scouting / Intrusion / Command Execution)
// and JSONL persistence.
package session

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"time"
)

// Kind classifies a session per section 3.3 of the paper.
type Kind int

// Session kinds, ordered by increasing attacker progress.
const (
	// Scanning: TCP handshake only, no credentials offered.
	Scanning Kind = iota
	// Scouting: login attempted but never succeeded.
	Scouting
	// Intrusion: login succeeded, no commands executed.
	Intrusion
	// CommandExec: login succeeded and at least one command ran.
	CommandExec
)

// String returns the kind name used in reports.
func (k Kind) String() string {
	switch k {
	case Scanning:
		return "scanning"
	case Scouting:
		return "scouting"
	case Intrusion:
		return "intrusion"
	case CommandExec:
		return "command-execution"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Protocol names.
const (
	ProtoSSH    = "ssh"
	ProtoTelnet = "telnet"
)

// LoginAttempt is one credential presentation.
type LoginAttempt struct {
	Username string `json:"user"`
	Password string `json:"pass"`
	Success  bool   `json:"ok"`
}

// Command is one executed shell line. Known marks commands the honeypot
// emulates; unknown commands are recorded verbatim only.
type Command struct {
	Raw   string `json:"raw"`
	Known bool   `json:"known"`
}

// Download records a file retrieval commanded on the honeypot (wget,
// curl, tftp, ftpget). Hash is the SHA-256 of the content the emulated
// fetch produced.
type Download struct {
	URI      string `json:"uri"`
	SourceIP string `json:"src_ip,omitempty"`
	Hash     string `json:"hash,omitempty"`
	Size     int64  `json:"size,omitempty"`
}

// ExecAttempt records a command that tried to execute a file. FileExists
// reports whether the honeypot had the file (hash known); bots that move
// binaries via scp/rsync leave FileExists=false — the "file missing"
// population of Figure 4(b).
type ExecAttempt struct {
	Path       string `json:"path"`
	FileExists bool   `json:"exists"`
	Hash       string `json:"hash,omitempty"`
}

// Record is one honeypot session as stored in the honeynet database.
type Record struct {
	ID         uint64    `json:"id"`
	Start      time.Time `json:"start"`
	End        time.Time `json:"end"`
	HoneypotID string    `json:"hp"`
	HoneypotIP string    `json:"hp_ip,omitempty"`
	ClientIP   string    `json:"client_ip"`
	ClientPort int       `json:"client_port,omitempty"`
	Protocol   string    `json:"proto"`
	// ClientVersion is the SSH identification string, when SSH was used.
	ClientVersion string `json:"client_ver,omitempty"`

	Logins       []LoginAttempt `json:"logins,omitempty"`
	Commands     []Command      `json:"cmds,omitempty"`
	Downloads    []Download     `json:"dls,omitempty"`
	ExecAttempts []ExecAttempt  `json:"execs,omitempty"`

	// StateChanged reports whether any command altered the virtual
	// filesystem (created/modified/deleted files) — the Figure 1 split.
	StateChanged bool `json:"state_changed,omitempty"`
	// DroppedHashes are the distinct SHA-256 hashes of files created or
	// modified during the session.
	DroppedHashes []string `json:"hashes,omitempty"`
	// TimedOut is set when the honeypot's 3-minute timer ended the session.
	TimedOut bool `json:"timeout,omitempty"`
}

// LoggedIn reports whether any login attempt succeeded.
func (r *Record) LoggedIn() bool {
	for _, l := range r.Logins {
		if l.Success {
			return true
		}
	}
	return false
}

// Kind classifies the session per section 3.3.
func (r *Record) Kind() Kind {
	switch {
	case len(r.Logins) == 0:
		return Scanning
	case !r.LoggedIn():
		return Scouting
	case len(r.Commands) == 0:
		return Intrusion
	default:
		return CommandExec
	}
}

// CommandText returns all command lines joined by newlines — the input
// to classification and clustering.
func (r *Record) CommandText() string {
	if len(r.Commands) == 0 {
		return ""
	}
	n := 0
	for _, c := range r.Commands {
		n += len(c.Raw) + 1
	}
	buf := make([]byte, 0, n)
	for i, c := range r.Commands {
		if i > 0 {
			buf = append(buf, '\n')
		}
		buf = append(buf, c.Raw...)
	}
	return string(buf)
}

// Month returns the session's start month truncated to the first, the
// bucketing unit for every temporal figure in the paper.
func (r *Record) Month() time.Time {
	return time.Date(r.Start.Year(), r.Start.Month(), 1, 0, 0, 0, 0, time.UTC)
}

// Day returns the session's start date truncated to midnight UTC.
func (r *Record) Day() time.Time {
	return r.Start.Truncate(24 * time.Hour)
}

// Writer streams records as JSON lines, each encoded by AppendJSON:
// the bytes json.Encoder would write, from the encoder the store's WAL
// uses.
type Writer struct {
	bw   *bufio.Writer
	line []byte
}

// NewWriter returns a JSONL writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<20)}
}

// Write appends one record. A record that cannot be encoded writes
// nothing.
func (w *Writer) Write(r *Record) error {
	line, err := AppendJSON(w.line[:0], r)
	if err != nil {
		return err
	}
	w.line = append(line, '\n')
	_, err = w.bw.Write(w.line)
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// obsTrailerPrefix marks a metrics-snapshot trailer line, which
// honeypotd appended to its -out session log on drain before the store
// became a node's only durable log. Nothing writes one any more, but
// logs holding them exist, so readers still skip them. The envelope
// put _obs first, so a prefix check identifies trailers without
// parsing.
var obsTrailerPrefix = []byte(`{"_obs"`)

// IsObsTrailer reports whether a JSONL line is a metrics-snapshot
// trailer rather than a session record.
func IsObsTrailer(line []byte) bool { return bytes.HasPrefix(line, obsTrailerPrefix) }

// MaybeGzipReader returns r transparently decompressed when the stream
// begins with the gzip magic bytes, so .jsonl and .jsonl.gz datasets
// load through the same code path. Detection is by content, not file
// extension.
func MaybeGzipReader(r io.Reader) (io.Reader, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		return gzip.NewReader(br)
	}
	if err != nil && err != io.EOF {
		return nil, err
	}
	return br, nil
}

// Reader streams the records of a JSONL dataset, plain or
// gzip-compressed, one at a time: the Next/Record/Err shape of every
// store cursor, so a file and a store directory load through the same
// consumer. Blank lines and the metrics-snapshot trailer lines older
// honeypotd logs hold (see IsObsTrailer) are skipped.
type Reader struct {
	br  *bufio.Reader
	dec JSONDecoder
	rec *Record
	n   int
	eof bool
	err error
}

// NewReader returns a Reader over r. A stream that cannot be opened (a
// bad gzip header) reports through Err after the first Next.
func NewReader(r io.Reader) *Reader {
	rr, err := MaybeGzipReader(r)
	if err != nil {
		return &Reader{err: err}
	}
	return &Reader{br: bufio.NewReaderSize(rr, 1<<20)}
}

// Next advances to the next record. It returns false at the end of the
// stream or on error (see Err).
func (d *Reader) Next() bool {
	for d.err == nil && !d.eof {
		line, err := d.br.ReadBytes('\n')
		if err == io.EOF {
			d.eof = true // a last line without its newline still counts
		} else if err != nil {
			d.err = err
			return false
		}
		if line = bytes.TrimSpace(line); len(line) == 0 || IsObsTrailer(line) {
			continue
		}
		d.rec = &Record{}
		if err := d.dec.Decode(line, d.rec); err != nil {
			d.err = fmt.Errorf("session: decoding record %d: %w", d.n, err)
			return false
		}
		d.n++
		return true
	}
	return false
}

// Record returns the record Next advanced to; the caller may retain it.
func (d *Reader) Record() *Record { return d.rec }

// Err returns the first error the stream hit, if any.
func (d *Reader) Err() error { return d.err }

// ReadAll drains a Reader over r into a slice.
func ReadAll(r io.Reader) ([]*Record, error) {
	var out []*Record
	d := NewReader(r)
	for d.Next() {
		out = append(out, d.Record())
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
