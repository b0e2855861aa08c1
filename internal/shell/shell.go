// Package shell emulates the Unix shell a medium-interaction SSH/Telnet
// honeypot presents after login, in the style of Cowrie: a fixed set of
// "known" commands run against a virtual filesystem, everything else is
// recorded verbatim, download commands log the URIs they fetch, and the
// hash of every file created is retained.
package shell

import (
	"errors"
	"fmt"
	"net"
	"net/url"
	"strings"

	"honeynet/internal/session"
	"honeynet/internal/vfs"
)

// DownloadFunc produces the content behind a URI for emulated wget/curl/
// tftp fetches. The simulator installs a deterministic synthetic payload
// generator; returning an error emulates an unreachable server.
type DownloadFunc func(uri string) ([]byte, error)

// Shell is one login session's command interpreter. Not safe for
// concurrent use.
type Shell struct {
	FS       *vfs.FS
	Hostname string
	User     string
	Env      map[string]string

	download DownloadFunc

	commands     []session.Command
	downloads    []session.Download
	execAttempts []session.ExecAttempt

	// baseline is the filesystem change-log checkpoint at shell start;
	// state-change accounting is relative to it, so a persistent
	// filesystem shared across sessions attributes changes correctly.
	baseline int

	exited bool
	depth  int
}

// New returns a shell over a fresh honeypot filesystem.
func New(hostname string, download DownloadFunc) *Shell {
	return NewWithFS(hostname, vfs.New(), download)
}

// NewWithFS returns a shell over an existing filesystem — the persistent
// honeypot mode keeps one filesystem per client across connections, so a
// returning attacker finds the files of earlier sessions (the
// consistency check of section 5).
func NewWithFS(hostname string, fs *vfs.FS, download DownloadFunc) *Shell {
	if hostname == "" {
		hostname = "svr04"
	}
	return &Shell{
		FS:       fs,
		baseline: fs.ChangeCount(),
		Hostname: hostname,
		User:     "root",
		Env: map[string]string{
			"SHELL": "/bin/bash",
			"HOME":  "/root",
			"USER":  "root",
			"PATH":  "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin",
			"TERM":  "xterm",
		},
		download: download,
	}
}

// Prompt returns the PS1-style prompt string.
func (sh *Shell) Prompt() string {
	cwd := sh.FS.Cwd()
	if cwd == "/root" {
		cwd = "~"
	}
	return fmt.Sprintf("%s@%s:%s# ", sh.User, sh.Hostname, cwd)
}

// Exited reports whether an exit/logout command ended the session.
func (sh *Shell) Exited() bool { return sh.exited }

// Commands returns the recorded command log.
func (sh *Shell) Commands() []session.Command { return sh.commands }

// Downloads returns recorded file retrievals.
func (sh *Shell) Downloads() []session.Download { return sh.downloads }

// ExecAttempts returns recorded file-execution attempts.
func (sh *Shell) ExecAttempts() []session.ExecAttempt { return sh.execAttempts }

// StateChanged reports whether any command of THIS session mutated the
// filesystem (changes from earlier sessions on a persistent filesystem
// are not attributed to it).
func (sh *Shell) StateChanged() bool { return len(sh.FS.ChangesSince(sh.baseline)) > 0 }

// DroppedHashes returns the distinct hashes of files created or modified
// during this session, in first-seen order.
func (sh *Shell) DroppedHashes() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range sh.FS.ChangesSince(sh.baseline) {
		if (c.Kind == vfs.ChangeCreate || c.Kind == vfs.ChangeModify) && c.Hash != "" && !seen[c.Hash] {
			seen[c.Hash] = true
			out = append(out, c.Hash)
		}
	}
	return out
}

// Run executes one input line (which may contain several commands) and
// returns the combined output. The line is recorded in the command log.
func (sh *Shell) Run(line string) string {
	line = strings.TrimSpace(line)
	if line == "" {
		return ""
	}
	segs := splitSegments(line)
	sh.commands = append(sh.commands, session.Command{Raw: line, Known: sh.segmentsKnown(segs)})
	out, _ := sh.evalSegments(segs, "")
	return out
}

// segmentsKnown reports whether every simple command of a line's
// segments is emulated.
func (sh *Shell) segmentsKnown(segs []segment) bool {
	for _, seg := range segs {
		pc := splitWords(seg.text)
		if len(pc.words) == 0 {
			continue
		}
		name := pc.words[0]
		if !sh.isKnownCommand(name) {
			return false
		}
	}
	return true
}

func (sh *Shell) isKnownCommand(name string) bool {
	base := name[strings.LastIndexByte(name, '/')+1:]
	if _, ok := builtins[base]; ok {
		return true
	}
	// A direct path invocation of an existing file counts as known
	// (the honeypot "executes" it); a missing file is also handled.
	if strings.HasPrefix(name, "./") || strings.HasPrefix(name, "/") {
		return true
	}
	return false
}

// eval runs a full line (sequences, pipelines) with the given stdin and
// returns (output, exitStatus).
func (sh *Shell) eval(line, stdin string) (string, int) {
	return sh.evalSegments(splitSegments(line), stdin)
}

// evalSegments is eval of a line already split into segments.
func (sh *Shell) evalSegments(segs []segment, stdin string) (string, int) {
	if sh.depth > 8 {
		return "", 1
	}
	sh.depth++
	defer func() { sh.depth-- }()

	var out strings.Builder
	lastExit := 0
	i := 0
	for i < len(segs) {
		// Collect a pipeline: segments joined by opPipe.
		j := i
		for j < len(segs) && segs[j].next == opPipe {
			j++
		}
		pipeline := segs[i : j+1]

		// Honor && / || using the PREVIOUS segment's operator.
		runIt := true
		if i > 0 {
			switch segs[i-1].next {
			case opAnd:
				runIt = lastExit == 0
			case opOr:
				runIt = lastExit != 0
			}
		}
		if runIt && !sh.exited {
			pout, pexit := sh.runPipeline(pipeline, stdin)
			out.WriteString(pout)
			lastExit = pexit
		}
		i = j + 1
	}
	return out.String(), lastExit
}

// runPipeline executes the segments of one pipeline, feeding each
// command's output to the next command's stdin.
func (sh *Shell) runPipeline(segs []segment, stdin string) (string, int) {
	cur := stdin
	exit := 0
	for _, seg := range segs {
		pc := splitWords(sh.expand(seg.text))
		if len(pc.words) == 0 {
			continue
		}
		out, e := sh.runSimple(pc, cur)
		exit = e
		if pc.redir != nil {
			err := sh.applyRedirect(pc.redir, out)
			out = ""
			if errors.Is(err, vfs.ErrNoSpace) {
				out, exit = pc.words[0]+": write error: No space left on device\n", 1
			}
		}
		cur = out
	}
	return cur, exit
}

func (sh *Shell) applyRedirect(r *redirect, content string) error {
	if r.append {
		return sh.FS.AppendFile(r.target, []byte(content))
	}
	return sh.FS.WriteFile(r.target, []byte(content))
}

// expand performs $VAR / ${VAR} expansion and $(...) / backtick command
// substitution outside single quotes.
func (sh *Shell) expand(text string) string {
	// Command substitution first.
	text = sh.substituteCommands(text)

	var b strings.Builder
	inSingle := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c == '\'':
			inSingle = !inSingle
			b.WriteByte(c)
		case c == '$' && !inSingle && i+1 < len(text):
			name, consumed := parseVarName(text[i+1:])
			if consumed == 0 {
				b.WriteByte(c)
				continue
			}
			b.WriteString(sh.Env[name])
			i += consumed
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

func parseVarName(s string) (string, int) {
	if s == "" {
		return "", 0
	}
	if s[0] == '{' {
		end := strings.IndexByte(s, '}')
		if end < 0 {
			return "", 0
		}
		return s[1:end], end + 1
	}
	n := 0
	for n < len(s) && (isAlnum(s[n]) || s[n] == '_') {
		n++
	}
	if n == 0 {
		return "", 0
	}
	return s[:n], n
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// substituteCommands replaces $(cmd) and `cmd` with the command output.
func (sh *Shell) substituteCommands(text string) string {
	for iter := 0; iter < 4; iter++ {
		start := strings.Index(text, "$(")
		if start >= 0 {
			depth := 0
			end := -1
			for i := start + 2; i < len(text); i++ {
				if text[i] == '(' {
					depth++
				} else if text[i] == ')' {
					if depth == 0 {
						end = i
						break
					}
					depth--
				}
			}
			if end < 0 {
				break
			}
			inner, _ := sh.eval(text[start+2:end], "")
			text = text[:start] + strings.TrimRight(inner, "\n") + text[end+1:]
			continue
		}
		tick := strings.IndexByte(text, '`')
		if tick >= 0 {
			end := strings.IndexByte(text[tick+1:], '`')
			if end < 0 {
				break
			}
			inner, _ := sh.eval(text[tick+1:tick+1+end], "")
			text = text[:tick] + strings.TrimRight(inner, "\n") + text[tick+2+end:]
			continue
		}
		break
	}
	return text
}

// runSimple executes one simple command.
func (sh *Shell) runSimple(pc parsedCmd, stdin string) (string, int) {
	name := pc.words[0]
	args := pc.words[1:]
	base := name[strings.LastIndexByte(name, '/')+1:]

	// VAR=value assignments.
	if eq := strings.IndexByte(name, '='); eq > 0 && !strings.ContainsAny(name[:eq], "/. ") {
		sh.Env[name[:eq]] = name[eq+1:]
		return "", 0
	}

	if fn, ok := builtins[base]; ok {
		// Path-qualified invocations must reference a real binary, except
		// for the well-known locations bots use blindly.
		return fn(sh, args, stdin)
	}

	// Direct invocation of a file path: an execution attempt.
	if strings.HasPrefix(name, "./") || strings.HasPrefix(name, "/") || strings.HasPrefix(name, "~/") {
		return sh.attemptExec(name)
	}

	return fmt.Sprintf("-bash: %s: command not found\n", name), 127
}

// attemptExec records an attempt to run the file at path.
func (sh *Shell) attemptExec(path string) (string, int) {
	hash, ok := sh.FS.HashOf(path)
	sh.execAttempts = append(sh.execAttempts, session.ExecAttempt{
		Path:       sh.FS.Abs(path),
		FileExists: ok,
		Hash:       hash,
	})
	if !ok {
		return fmt.Sprintf("-bash: %s: No such file or directory\n", path), 127
	}
	// The honeypot pretends execution succeeded silently, as Cowrie does
	// for foreign binaries.
	return "", 0
}

// fetch runs the download hook and records the result.
func (sh *Shell) fetch(uri, saveAs string) (content []byte, hash string, err error) {
	if sh.download == nil {
		return nil, "", fmt.Errorf("network unreachable")
	}
	content, err = sh.download(uri)
	dl := session.Download{URI: uri, SourceIP: hostIPFromURI(uri)}
	if err == nil {
		if saveAs != "" {
			_ = sh.FS.WriteFile(saveAs, content)
			if h, ok := sh.FS.HashOf(saveAs); ok {
				dl.Hash = h
				hash = h
			}
		} else {
			dl.Hash = vfsHash(content)
			hash = dl.Hash
		}
		dl.Size = int64(len(content))
	}
	sh.downloads = append(sh.downloads, dl)
	return content, hash, err
}

func vfsHash(b []byte) string { return vfs.HashBytes(b) }

// hostIPFromURI returns the host portion of a URI when it is an IP
// literal, else the hostname.
func hostIPFromURI(uri string) string {
	u, err := url.Parse(uri)
	if err != nil {
		return ""
	}
	host := u.Hostname()
	if ip := net.ParseIP(host); ip != nil {
		return ip.String()
	}
	return host
}
