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
	status int // the last pipeline's exit status, $?
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
	list := parse(line)
	sh.commands = append(sh.commands, session.Command{Raw: line, Known: sh.known(list)})
	out, _ := sh.evalList(list, "")
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

// outputCap bounds what one line keeps: the output eval returns and the
// bytes a command's expanded arguments hold. Output past it is dropped;
// the commands still run.
const outputCap = 1 << 20

// maxDepth bounds how deep eval nests: sh -c and substitutions.
const maxDepth = 8

// eval runs a full line (sequences, pipelines) with the given stdin and
// returns (output, exitStatus).
func (sh *Shell) eval(line, stdin string) (string, int) {
	return sh.evalList(parse(line), stdin)
}

// evalList is eval of a parsed line.
func (sh *Shell) evalList(list []pipeline, stdin string) (string, int) {
	if sh.depth > maxDepth {
		return "", 1
	}
	sh.depth++
	defer func() { sh.depth-- }()

	var out strings.Builder
	lastExit := 0
	prev := opSeq
	for _, pl := range list {
		// && and || read the status of the last pipeline that ran.
		runIt := prev == opSeq || (prev == opAnd) == (lastExit == 0)
		if runIt && !sh.exited {
			pout, pexit := sh.runPipeline(pl.cmds, stdin)
			out.WriteString(pout[:min(len(pout), outputCap-out.Len())])
			lastExit, sh.status = pexit, pexit
		}
		prev = pl.next
	}
	return out.String(), lastExit
}

// runPipeline executes the commands of one pipeline, feeding each
// command's output to the next command's stdin.
func (sh *Shell) runPipeline(cmds []command, stdin string) (string, int) {
	cur := stdin
	exit := 0
	for _, c := range cmds {
		args := sh.fields(c.words)
		if len(args) == 0 {
			continue
		}
		out, e := sh.runSimple(args, cur)
		exit = e
		redirected := false
		if c.stderr != nil {
			// The shell keeps one output stream; its own error text
			// ("-bash: …") is the part known to be standard error.
			errText := ""
			if strings.HasPrefix(out, "-bash: ") {
				errText, out = out, ""
			}
			if msg := sh.applyRedirect(c.stderr, args[0], errText); msg != "" {
				out, exit, redirected = msg, 1, true
			}
		}
		if c.stdout != nil && !redirected {
			if out = sh.applyRedirect(c.stdout, args[0], out); out != "" {
				exit = 1
			}
		}
		cur = out
	}
	return cur, exit
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
				out, _ := sh.evalList(pt.body, "")
				v = strings.TrimRight(out, "\n")
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

// applyRedirect writes content to the redirect's target for the command
// name and returns what the terminal shows: nothing, or bash's message
// for a refused write. It asks the vfs whether the write can go through
// before it copies content, so a refused write costs no copy.
func (sh *Shell) applyRedirect(r *redirect, name, content string) string {
	target := strings.Join(sh.fields([]word{r.target}), " ")
	size := int64(len(content))
	if r.append {
		if old, err := sh.FS.ReadFile(target); err == nil {
			size += int64(len(old))
		}
	}
	err := sh.FS.CanWrite(target, size)
	if err == nil && r.append {
		err = sh.FS.AppendFile(target, []byte(content))
	} else if err == nil {
		err = sh.FS.WriteFile(target, []byte(content))
	}
	switch {
	case err == nil:
		return ""
	case errors.Is(err, vfs.ErrNoSpace):
		return name + ": write error: No space left on device\n"
	}
	return "-bash: " + target + ": " + strerror(err) + "\n"
}

// strerror is bash's text for a vfs error other than ErrNoSpace.
func strerror(err error) string {
	switch {
	case errors.Is(err, vfs.ErrIsDir):
		return "Is a directory"
	case errors.Is(err, vfs.ErrNotDir):
		return "Not a directory"
	}
	return "No such file or directory"
}

// runSimple executes one simple command.
func (sh *Shell) runSimple(words []string, stdin string) (string, int) {
	name, args := words[0], words[1:]
	base := name[strings.LastIndexByte(name, '/')+1:]

	// VAR=value assignments.
	if eq := strings.IndexByte(name, '='); eq > 0 && !strings.ContainsAny(name[:eq], "/. ") {
		sh.Env[name[:eq]] = name[eq+1:]
		return "", 0
	}

	if fn, ok := builtins[base]; ok {
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
