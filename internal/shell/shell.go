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
	"strconv"
	"strings"

	"honeynet/internal/session"
	"honeynet/internal/vfs"
)

// DownloadFunc produces the content behind a URI for emulated wget/curl/
// tftp fetches. The simulator installs a deterministic synthetic payload
// generator; returning an error emulates an unreachable server.
// A saved download keeps the returned bytes, which must not change.
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
	status int      // the last pipeline's exit status, $?
	fd     [3]*sink // where descriptors 0, 1 and 2 write
	term   sink     // the terminal, which Run empties into its result
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
// returns what it printed, standard output and standard error in the
// order they were written. The line is recorded in the command log.
func (sh *Shell) Run(line string) string {
	line = strings.TrimSpace(line)
	if line == "" {
		return ""
	}
	list := parse(line)
	sh.commands = append(sh.commands, session.Command{Raw: line, Known: sh.known(list)})
	sh.fd = [3]*sink{&sh.term, &sh.term, &sh.term}
	sh.evalList(list, "")
	out := string(sh.term.buf)
	sh.term.buf = nil // an idle session holds no output
	return out
}

// known reports whether every simple command of a line is emulated,
// reading each one's first word before expansion.
func (sh *Shell) known(list []pipeline) bool {
	for _, pl := range list {
		for _, c := range pl.cmds {
			if len(c.words) > 0 && !sh.isKnownCommand(c.words[0].source()) {
				return false
			}
		}
	}
	return true
}

// isKnownCommand reports whether name is emulated: a builtin, or a
// direct path invocation, which the honeypot "executes" whether or not
// the file exists.
func (sh *Shell) isKnownCommand(name string) bool {
	_, ok := builtins[name[strings.LastIndexByte(name, '/')+1:]]
	return ok || strings.HasPrefix(name, "./") || strings.HasPrefix(name, "/")
}

// outputCap bounds what the terminal, a pipe and a substitution keep of
// one line, and the bytes a command's expanded arguments hold. Output
// past it is dropped; the commands still run.
const outputCap = 1 << 20

// maxDepth bounds how deep eval nests: sh -c and substitutions.
const maxDepth = 8

// eval runs a full line (sequences, pipelines) with the given stdin and
// returns its exit status.
func (sh *Shell) eval(line, stdin string) int {
	return sh.evalList(parse(line), stdin)
}

// evalList is eval of a parsed line.
func (sh *Shell) evalList(list []pipeline, stdin string) int {
	if sh.depth > maxDepth {
		return 1
	}
	sh.depth++
	defer func() { sh.depth-- }()

	status, prev := 0, opSeq
	for _, pl := range list {
		// && and || read the status of the last pipeline that ran.
		if (prev == opSeq || (prev == opAnd) == (status == 0)) && !sh.exited {
			status = sh.runPipeline(pl.cmds, stdin)
			sh.status = status
		}
		prev = pl.next
	}
	return status
}

// runPipeline runs the commands of one pipeline. Each command but the
// last writes its standard output to a fresh pipe, which the next one
// reads as its stdin; standard error is the pipeline's own.
func (sh *Shell) runPipeline(cmds []command, stdin string) int {
	for _, c := range cmds[:len(cmds)-1] {
		stdin = sh.capture(func() { sh.runCommand(c, stdin) })
	}
	return sh.runCommand(cmds[len(cmds)-1], stdin)
}

// capture runs fn with standard output bound to a fresh pipe and returns
// what fn wrote there.
func (sh *Shell) capture(fn func()) string {
	out, pipe := sh.fd[1], &sink{}
	sh.fd[1] = pipe
	fn()
	sh.fd[1] = out
	return string(pipe.buf)
}

// runCommand runs one simple command. Its redirects rebind the fd
// table, left to right, until it returns; one that fails prints bash's
// message and the command does not run. Its assignments set variables:
// for the command alone if it has a name, else for the shell.
func (sh *Shell) runCommand(c command, stdin string) (status int) {
	args := sh.fields(c.words[c.assigns:])
	saved, files := sh.fd, []*sink(nil)
	defer func() {
		for _, f := range files {
			if f.full && len(args) > 0 {
				status = sh.fail(1, "%s: write error: No space left on device\n", args[0])
			}
			f.flush()
		}
		sh.fd = saved
	}()
	for _, r := range c.redirs {
		if r.target == nil {
			if r.dup > 2 {
				return sh.fail(1, "-bash: %d: Bad file descriptor\n", r.dup)
			}
			sh.fd[r.fd] = sh.fd[r.dup]
			continue
		}
		target := strings.Join(sh.fields([]word{r.target}), " ")
		f := &sink{fs: sh.FS, path: sh.FS.Abs(target), app: r.append}
		if old, err := sh.FS.ReadFile(f.path); err == nil && f.app {
			f.base = len(old)
		}
		if err := sh.FS.CanWrite(f.path, int64(f.base)); err != nil {
			return sh.fail(1, "-bash: %s: %s\n", target, strerror(err))
		}
		sh.fd[r.fd] = f
		files = append(files, f)
	}
	for _, w := range c.words[:c.assigns] {
		name, value, _ := strings.Cut(sh.fields([]word{w})[0], "=")
		if old, ok := sh.Env[name]; ok && len(args) > 0 {
			defer func() { sh.Env[name] = old }()
		} else if len(args) > 0 {
			defer delete(sh.Env, name)
		}
		sh.Env[name] = value
	}
	if len(args) == 0 {
		return 0
	}
	return sh.exec(args, stdin)
}

// fields turns words into arguments. A variable, $? or substitution
// takes its value, and an unquoted value splits into fields at blanks
// and newlines; nothing is lexed again. The arguments hold at most
// outputCap bytes.
func (sh *Shell) fields(words []word) []string {
	args := make([]string, 0, len(words))
	room := outputCap
	for _, w := range words {
		if len(w) == 1 && w[0].kind == partLit {
			t := w[0].text[:min(len(w[0].text), room)]
			room -= len(t)
			args = append(args, t)
			continue
		}
		var f strings.Builder
		started := false // f holds a field, perhaps an empty quoted one
		for _, pt := range w {
			v := pt.text
			switch pt.kind {
			case partVar:
				v = sh.Env[pt.text]
			case partStatus:
				v = strconv.Itoa(sh.status)
			case partSubst:
				v = strings.TrimRight(sh.capture(func() { sh.evalList(pt.body, "") }), "\n")
			}
			v = v[:min(len(v), room)]
			room -= len(v)
			if pt.kind == partLit || pt.quoted {
				f.WriteString(v)
				started = true
				continue
			}
			for i := strings.IndexAny(v, " \t\n"); i >= 0; i = strings.IndexAny(v, " \t\n") {
				f.WriteString(v[:i])
				if started || i > 0 {
					args = append(args, f.String())
					f.Reset()
				}
				started, v = false, v[i+1:]
			}
			if v != "" {
				f.WriteString(v)
				started = true
			}
		}
		if started {
			args = append(args, f.String())
		}
	}
	return args
}

// sink is where one output stream goes: the terminal, a pipe or a
// file. It keeps what it can hold and drops the rest, and the command
// writing to it goes on running. The terminal and a pipe hold outputCap
// bytes. A file holds what the vfs would accept, and flush writes it
// once, when the command ends.
type sink struct {
	buf  []byte
	fs   *vfs.FS // a file sink's filesystem, else nil
	path string
	app  bool // append to the file
	base int  // the bytes the file held when opened to append
	full bool // the vfs refused a write
}

// Write and WriteString let fmt.Fprintf and the vfs's bytes reach a sink.
func (s *sink) Write(p []byte) (int, error)       { return put(s, p) }
func (s *sink) WriteString(p string) (int, error) { return put(s, p) }

// put appends what of p the sink can hold.
func put[T string | []byte](s *sink, p T) (int, error) {
	n := min(len(p), outputCap-len(s.buf))
	if s.fs != nil {
		n = len(p)
		if s.full || s.fs.CanWrite(s.path, int64(s.base+len(s.buf)+n)) != nil {
			s.full, n = true, 0
		}
	}
	s.buf = append(s.buf, p[:n]...)
	return len(p), nil
}

// flush writes a file sink's bytes to its file. It fails only if the
// command removed the file's directory: the bytes go nowhere, as on Linux.
func (s *sink) flush() {
	if s.app {
		_ = s.fs.AppendFile(s.path, s.buf)
	} else {
		_ = s.fs.WriteFile(s.path, s.buf)
	}
}

// print writes text to standard output and returns status 0.
func (sh *Shell) print(text string) int {
	sh.fd[1].WriteString(text)
	return 0
}

// fail writes a message to standard error and returns status.
func (sh *Shell) fail(status int, format string, a ...any) int {
	fmt.Fprintf(sh.fd[2], format, a...)
	return status
}

// strerror is bash's text for a vfs error other than ErrNoSpace.
func strerror(err error) string {
	switch {
	case errors.Is(err, vfs.ErrIsDir):
		return "Is a directory"
	case errors.Is(err, vfs.ErrNotDir):
		return "Not a directory"
	case errors.Is(err, vfs.ErrExist):
		return "File exists"
	}
	return "No such file or directory"
}

// exec runs a command given its expanded arguments.
func (sh *Shell) exec(words []string, stdin string) int {
	name, args := words[0], words[1:]
	if fn, ok := builtins[name[strings.LastIndexByte(name, '/')+1:]]; ok {
		return fn(sh, args, stdin)
	}
	// Direct invocation of a file path: an execution attempt.
	if strings.HasPrefix(name, "./") || strings.HasPrefix(name, "/") || strings.HasPrefix(name, "~/") {
		return sh.attemptExec(name)
	}
	return sh.fail(127, "-bash: %s: command not found\n", name)
}

// attemptExec records an attempt to run the file at path.
func (sh *Shell) attemptExec(path string) int {
	hash, ok := sh.FS.HashOf(path)
	sh.execAttempts = append(sh.execAttempts, session.ExecAttempt{
		Path:       sh.FS.Abs(path),
		FileExists: ok,
		Hash:       hash,
	})
	if !ok {
		return sh.fail(127, "-bash: %s: No such file or directory\n", path)
	}
	// The honeypot pretends execution succeeded silently, as Cowrie does
	// for foreign binaries.
	return 0
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
			dl.Hash = vfs.HashBytes(content)
			hash = dl.Hash
		}
		dl.Size = int64(len(content))
	}
	sh.downloads = append(sh.downloads, dl)
	return content, hash, err
}

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
