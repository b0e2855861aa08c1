package shell

import "strings"

// opKind labels the separators between simple commands.
type opKind int

const (
	opSeq  opKind = iota // ';' or newline or '&'
	opAnd                // '&&'
	opOr                 // '||'
	opPipe               // '|'
)

// segment is one simple command plus the operator connecting it to the
// NEXT segment.
type segment struct {
	text string
	next opKind
}

// splitSegments cuts a command line into simple-command segments at
// unquoted ';', '&&', '||', '|', '&', and newlines. Every byte but the
// operators is kept verbatim, so each segment's text is a trimmed slice
// of line.
func splitSegments(line string) []segment {
	var segs []segment
	start := 0
	inSingle, inDouble, escaped := false, false, false

	// flush ends the segment at end, before an operator of width bytes.
	flush := func(end, width int, op opKind) {
		text := strings.TrimSpace(line[start:end])
		start = end + width
		if text != "" {
			segs = append(segs, segment{text: text, next: op})
		} else if len(segs) > 0 {
			// Empty segment: fold the operator into the previous one so
			// "a ; ; b" behaves like "a ; b".
			segs[len(segs)-1].next = op
		}
	}

	for i := 0; i < len(line); i++ {
		c := line[i]
		if escaped {
			escaped = false
			continue
		}
		switch {
		case c == '\\' && !inSingle:
			escaped = true
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case inSingle || inDouble: // a quoted operator is a plain byte
		case c == '\n', c == ';':
			flush(i, 1, opSeq)
		case c == '&':
			if i+1 < len(line) && line[i+1] == '&' {
				flush(i, 2, opAnd)
				i++
			} else if i == 0 || line[i-1] != '>' { // not fd duplication: 2>&1
				flush(i, 1, opSeq) // background '&': treated as sequence
			}
		case c == '|':
			if i+1 < len(line) && line[i+1] == '|' {
				flush(i, 2, opOr)
				i++
			} else {
				flush(i, 1, opPipe)
			}
		}
	}
	flush(len(line), 0, opSeq)
	return segs
}

// redirect describes an output redirection parsed from a simple command.
type redirect struct {
	target string
	append bool
}

// parsedCmd is a simple command after word splitting: its words, its
// standard output redirect and its standard error redirect (2>, 2>>).
type parsedCmd struct {
	words  []string
	redir  *redirect
	stderr *redirect
}

// splitWords tokenizes a simple command into words, honoring single and
// double quotes and backslash escapes (quotes removed), and extracts
// output redirections (>, >>, 2>, 2>>, &>, 2>&1), including glued forms like
// `echo "key">>file`.
//
// Backslash semantics follow bash: outside quotes it escapes the next
// byte; inside double quotes it escapes only $ ` " \\ (so `echo -e
// "\x6F"` keeps its backslash for echo to interpret); inside single
// quotes it is literal.
func splitWords(text string) parsedCmd {
	var words []string
	var cur strings.Builder
	inSingle, inDouble, started := false, false, false

	push := func() {
		if started {
			words = append(words, cur.String())
			cur.Reset()
			started = false
		}
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case c == '\\' && !inSingle && !inDouble:
			if i+1 < len(text) {
				cur.WriteByte(text[i+1])
				i++
			}
			started = true
		case c == '\\' && inDouble:
			if i+1 < len(text) && strings.IndexByte("$`\"\\", text[i+1]) >= 0 {
				cur.WriteByte(text[i+1])
				i++
			} else {
				cur.WriteByte(c)
			}
			started = true
		case c == '\'' && !inDouble:
			inSingle = !inSingle
			started = true
		case c == '"' && !inSingle:
			inDouble = !inDouble
			started = true
		case (c == ' ' || c == '\t') && !inSingle && !inDouble:
			push()
		case (c == '>' || c == '<') && !inSingle && !inDouble:
			// Fold a file-descriptor digit into the operator token
			// ("2>"), otherwise split the word here.
			var op strings.Builder
			if started && (cur.String() == "2" || cur.String() == "1") {
				op.WriteString(cur.String())
				cur.Reset()
				started = false
			}
			push()
			op.WriteByte(c)
			if c == '>' && i+1 < len(text) && text[i+1] == '>' {
				op.WriteByte('>')
				i++
			}
			if i+2 < len(text) && text[i+1] == '&' && text[i+2] == '1' {
				op.WriteString("&1")
				i += 2
			}
			words = append(words, op.String())
		default:
			cur.WriteByte(c)
			started = true
		}
	}
	push()

	out := parsedCmd{}
	i := 0
	for i < len(words) {
		w := words[i]
		switch w {
		case ">", ">>", "1>", "&>", "2>", "2>>":
			if i+1 < len(words) {
				r := &redirect{target: words[i+1], append: strings.HasSuffix(w, ">>")}
				if w[0] == '2' {
					out.stderr = r
				} else {
					out.redir = r
				}
				i += 2
				continue
			}
			// A bare trailing ">" truncates: emulate by redirecting to
			// nothing (ignored).
			i++
		case ">&1", "2>&1", "<":
			// fd duplication and input redirection: drop the operator
			// (and the input file name, if any).
			if w == "<" && i+1 < len(words) {
				i++
			}
			i++
		default:
			out.words = append(out.words, w)
			i++
		}
	}
	return out
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
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '\\':
			b.WriteByte('\\')
		case 'a':
			b.WriteByte(7)
		case 'b':
			b.WriteByte(8)
		case 'e':
			b.WriteByte(27)
		case 'f':
			b.WriteByte(12)
		case 'v':
			b.WriteByte(11)
		case 'x':
			// \xHH: one or two hex digits.
			v, n := 0, 0
			for n < 2 && i+1+n < len(s) && isHex(s[i+1+n]) {
				v = v*16 + hexVal(s[i+1+n])
				n++
			}
			if n == 0 {
				b.WriteString("\\x")
			} else {
				b.WriteByte(byte(v))
				i += n
			}
		case '0', '1', '2', '3', '4', '5', '6', '7':
			v, n := 0, 0
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

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
