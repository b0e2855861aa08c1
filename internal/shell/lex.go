package shell

import (
	"strconv"
	"strings"
)

// A line is lexed and parsed once, left to right, into a list of
// pipelines. A word keeps its $-forms and substitutions as parts, which
// the shell expands when it runs the command; nothing an expansion
// produces is parsed again.

// opKind labels the operators between simple commands.
type opKind int

const (
	opSeq  opKind = iota // ';' or newline or '&'
	opAnd                // '&&'
	opOr                 // '||'
	opPipe               // '|'
)

// pipeline is simple commands joined by '|', and the operator that
// decides whether the next pipeline runs (never opPipe).
type pipeline struct {
	cmds []command
	next opKind
}

// command is one simple command: its words, the first assigns of which
// are NAME=value assignments, and its redirects, in the order they apply.
type command struct {
	words   []word
	assigns int
	redirs  []redirect
}

// redirect rebinds descriptor fd (1 or 2) before the command runs: to
// the file target names, or, when target is nil, to what descriptor dup
// is bound to.
type redirect struct {
	fd, dup int
	target  word
	append  bool
}

// word is one shell word: a sequence of parts.
type word []part

type partKind uint8

const (
	partLit    partKind = iota // literal text
	partVar                    // $NAME or ${NAME}
	partStatus                 // $?
	partSubst                  // $(…) or `…`
)

// part is a piece of a word. quoted reports that it stood inside quotes
// or behind a backslash, so its value is not split into fields.
type part struct {
	kind   partKind
	quoted bool
	text   string     // partLit: the text; partVar: the name
	body   []pipeline // partSubst: the commands
}

// parser is the position of the one pass over a line.
type parser struct {
	src  string
	i    int
	nest int // substitutions open at the position
}

// parse lexes and parses a command line.
func parse(line string) []pipeline { return (&parser{src: line}).list(0) }

// at returns the byte off bytes past the position, or 0 past the end.
func (p *parser) at(off int) byte {
	if p.i+off < len(p.src) {
		return p.src[p.i+off]
	}
	return 0
}

// list parses commands up to the end of the line or, inside a
// substitution, up to its closing byte end, which it consumes. An empty
// command folds away: its operator replaces the one before it, so
// "a ; ; b" is "a ; b", and a stray '|' is dropped.
func (p *parser) list(end byte) []pipeline {
	var list []pipeline
	var pl pipeline
	var cmd command
	endCmd := func(op opKind) {
		if len(cmd.words) > 0 || len(cmd.redirs) > 0 {
			pl.cmds = append(pl.cmds, cmd)
			cmd = command{}
		} else if len(pl.cmds) == 0 {
			if n := len(list); n > 0 && op != opPipe {
				list[n-1].next = op
			}
			return
		}
		if op != opPipe {
			pl.next = op
			list = append(list, pl)
			pl = pipeline{}
		}
	}
	for p.i < len(p.src) {
		switch c := p.src[p.i]; {
		case c == end && end != 0:
			p.i++
			endCmd(opSeq)
			return list
		case c == ' ' || c == '\t':
			p.i++
		case c == '&' && p.at(1) == '&':
			p.i += 2
			endCmd(opAnd)
		case c == '|' && p.at(1) == '|':
			p.i += 2
			endCmd(opOr)
		case c == '|':
			p.i++
			endCmd(opPipe)
		case c == ';' || c == '\n' || c == '&' && p.at(1) != '>':
			p.i++
			endCmd(opSeq) // a background job runs in sequence
		case c == '>' || c == '<' || c == '&' || (c == '1' || c == '2') && p.at(1) == '>':
			p.redirect(&cmd, end)
		default:
			cmd.words = append(cmd.words, p.word(end))
			if w := cmd.words[len(cmd.words)-1]; len(cmd.words) == cmd.assigns+1 && isAssignment(w) {
				for i := range w {
					w[i].quoted = true // the value is not split
				}
				cmd.assigns++
			}
		}
	}
	endCmd(opSeq)
	return list
}

// redirect parses the redirection at the position: n>, n>>, n>&m, and
// &>, &>> and >&file, which send both streams to the file. Input
// redirection (<) is read and dropped: the shell has no input files.
func (p *parser) redirect(cmd *command, end byte) {
	r, both := redirect{fd: 1}, p.at(0) == '&'
	if p.at(0) == '2' {
		r.fd = 2
	}
	if c := p.at(0); c != '>' && c != '<' {
		p.i++ // the 1, 2 or & before '>'
	}
	input := p.at(0) == '<'
	p.i++
	if r.append = p.at(0) == '>'; r.append {
		p.i++
	}
	n := 0 // the digits of the descriptor n>&m duplicates
	if p.at(0) == '&' {
		p.i++
		for !both && p.at(n) >= '0' && p.at(n) <= '9' {
			n++
		}
		r.dup, _ = strconv.Atoi(p.src[p.i : p.i+n])
		p.i, both = p.i+n, n == 0
	}
	if n == 0 {
		for p.at(0) == ' ' || p.at(0) == '\t' {
			p.i++
		}
		r.target = p.word(end)
	}
	if input || n == 0 && len(r.target) == 0 {
		return
	}
	cmd.redirs = append(cmd.redirs, r)
	if both {
		cmd.redirs = append(cmd.redirs, redirect{fd: 2, dup: 1})
	}
}

// word reads the word at the position, up to an unquoted blank, operator
// or the list's end byte. It is the one place quotes and backslashes are
// read: outside quotes a backslash escapes the next byte; inside double
// quotes it escapes only $ ` " \ (so `echo -e "\x6F"` keeps its
// backslash for echo to interpret); inside single quotes it is literal.
// An unclosed quote runs to the end of the line.
func (p *parser) word(end byte) word {
	s := p.src
	var w word
	dq, mark := false, 0 // inside double quotes; len(w) at the opening quote
	for p.i < len(s) {
		c := s[p.i]
		switch {
		case !dq && (strings.IndexByte(" \t\n;&|<>", c) >= 0 || c == end && end != 0):
			return w
		case c == '"':
			if dq && len(w) == mark {
				w = append(w, part{quoted: true}) // "" is a word
			}
			dq, mark = !dq, len(w)
			p.i++
		case c == '\'' && !dq:
			j := strings.IndexByte(s[p.i+1:], '\'')
			if j < 0 {
				j = len(s) - p.i - 1
			}
			w = append(w, part{text: s[p.i+1 : p.i+1+j], quoted: true})
			p.i = min(p.i+j+2, len(s))
		case c == '\\' && (!dq || dqEscape(p.at(1))):
			j := min(p.i+2, len(s)) // a trailing backslash still makes a word
			w = append(w, part{text: s[p.i+1 : j], quoted: true})
			p.i = j
		case c == '$' || c == '`':
			w = p.dollar(w, dq)
		default:
			j := p.i + 1
			for ; j < len(s); j++ {
				d := s[j]
				if dq && (d == '"' || d == '$' || d == '`' || d == '\\' && j+1 < len(s) && dqEscape(s[j+1])) ||
					!dq && (strings.IndexByte(" \t\n;&|<>'\"\\$`", d) >= 0 || d == end && end != 0) {
					break
				}
			}
			w = append(w, part{text: s[p.i:j], quoted: dq})
			p.i = j
		}
	}
	if dq && len(w) == mark {
		w = append(w, part{quoted: true})
	}
	return w
}

// dqEscape reports whether a backslash before c escapes it inside double
// quotes.
func dqEscape(c byte) bool { return c == '$' || c == '`' || c == '"' || c == '\\' }

// dollar reads the $-form or backtick substitution at the position. A
// '$' that starts none is literal, and so is the opening byte of a
// substitution nested deeper than maxDepth, which eval would not run.
func (p *parser) dollar(w word, quoted bool) word {
	c := p.at(0)
	if (c == '`' || p.at(1) == '(') && p.nest < maxDepth {
		end := byte('`')
		if c == '$' {
			end = ')'
			p.i++
		}
		p.i++
		p.nest++
		body := p.list(end)
		p.nest--
		return append(w, part{kind: partSubst, quoted: quoted, body: body})
	}
	if c == '$' && p.at(1) == '?' {
		p.i += 2
		return append(w, part{kind: partStatus, quoted: quoted})
	}
	name := p.src[p.i+1:]
	braced := strings.HasPrefix(name, "{")
	if braced {
		name = name[1:]
	}
	n := nameLen(name)
	switch {
	case c == '$' && braced && n < len(name) && name[n] == '}':
		p.i += n + 3
	case c == '$' && !braced && n > 0:
		p.i += n + 1
	default:
		p.i++
		return append(w, part{text: p.src[p.i-1 : p.i], quoted: quoted})
	}
	return append(w, part{kind: partVar, quoted: quoted, text: name[:n]})
}

// nameLen is the length of the variable name s starts with.
func nameLen(s string) int {
	n := 0
	for n < len(s) && (s[n] == '_' || s[n] >= 'a' && s[n] <= 'z' || s[n] >= 'A' && s[n] <= 'Z' || s[n] >= '0' && s[n] <= '9') {
		n++
	}
	return n
}

// isAssignment reports whether w is NAME=value: an unquoted name that
// does not start with a digit, then '='.
func isAssignment(w word) bool {
	if len(w) == 0 || w[0].kind != partLit || w[0].quoted {
		return false
	}
	n := nameLen(w[0].text)
	return n > 0 && n < len(w[0].text) && w[0].text[n] == '=' && w[0].text[0] > '9'
}

// sigils show the parts source does not expand.
var sigils = [...]string{partVar: "$", partStatus: "$?", partSubst: "$(…)"}

// source is the word with its quotes removed and nothing expanded.
func (w word) source() string {
	if len(w) == 1 && w[0].kind == partLit {
		return w[0].text
	}
	var b strings.Builder
	for _, pt := range w {
		b.WriteString(sigils[pt.kind])
		b.WriteString(pt.text)
	}
	return b.String()
}

// decodeEchoEscapes interprets the escape sequences `echo -e` understands:
// \xHH, \0NNN (octal), \n, \t, \r, \\, \a, \b, \e, \f, \v.
func decodeEchoEscapes(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 >= len(s) {
			b.WriteByte(s[i])
			continue
		}
		i++
		if j := strings.IndexByte("ntr\\abefv", s[i]); j >= 0 {
			b.WriteByte("\n\t\r\\\a\b\x1b\f\v"[j])
			continue
		}
		switch n := 0; {
		case s[i] == 'x':
			// \xHH: one or two hex digits.
			for n < 2 && i+1+n < len(s) && strings.IndexByte("0123456789abcdefABCDEF", s[i+1+n]) >= 0 {
				n++
			}
			if n == 0 {
				b.WriteString("\\x")
				break
			}
			v, _ := strconv.ParseUint(s[i+1:i+1+n], 16, 8)
			b.WriteByte(byte(v))
			i += n
		case s[i] >= '0' && s[i] <= '7':
			v := 0
			for n < 3 && i+n < len(s) && s[i+n] >= '0' && s[i+n] <= '7' {
				v = v*8 + int(s[i+n]-'0')
				n++
			}
			b.WriteByte(byte(v))
			i += n - 1
		default:
			b.WriteByte('\\')
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
