package shell

import (
	"encoding/base64"
	"errors"
	"fmt"
	"path"
	"sort"
	"strconv"
	"strings"

	"honeynet/internal/vfs"
)

// builtinFunc executes one emulated command: args (no command name),
// stdin text; returns stdout text and exit status.
type builtinFunc func(sh *Shell, args []string, stdin string) (string, int)

// builtins maps command base names to their emulations. This is the
// honeypot's "known command" set; anything else is recorded as unknown.
var builtins map[string]builtinFunc

func init() {
	builtins = map[string]builtinFunc{
		"cd":        cmdCd,
		"pwd":       cmdPwd,
		"ls":        cmdLs,
		"echo":      cmdEcho,
		"cat":       cmdCat,
		"rm":        cmdRm,
		"mkdir":     cmdMkdir,
		"cp":        cmdCp,
		"mv":        cmdMv,
		"chmod":     cmdChmod,
		"chown":     cmdOk,
		"chattr":    cmdOk,
		"touch":     cmdTouch,
		"wget":      cmdWget,
		"curl":      cmdCurl,
		"tftp":      cmdTftp,
		"ftpget":    cmdFtpget,
		"uname":     cmdUname,
		"id":        cmdId,
		"whoami":    cmdWhoami,
		"hostname":  cmdHostname,
		"nproc":     cmdNproc,
		"uptime":    cmdUptime,
		"w":         cmdW,
		"free":      cmdFree,
		"ps":        cmdPs,
		"top":       cmdTop,
		"kill":      cmdOk,
		"pkill":     cmdOk,
		"killall":   cmdOk,
		"crontab":   cmdCrontab,
		"passwd":    cmdPasswd,
		"chpasswd":  cmdChpasswd,
		"export":    cmdExport,
		"set":       cmdOk,
		"unset":     cmdUnset,
		"which":     cmdWhich,
		"grep":      cmdGrep,
		"egrep":     cmdGrep,
		"wc":        cmdWc,
		"head":      cmdHead,
		"tail":      cmdTail,
		"sort":      cmdSort,
		"history":   cmdHistory,
		"lscpu":     cmdLscpu,
		"df":        cmdDf,
		"mount":     cmdMount,
		"ifconfig":  cmdIfconfig,
		"ip":        cmdIp,
		"netstat":   cmdNetstat,
		"sleep":     cmdOk,
		"sync":      cmdOk,
		"ulimit":    cmdOk,
		"stty":      cmdOk,
		"sh":        cmdSh,
		"bash":      cmdSh,
		"busybox":   cmdBusybox,
		"dd":        cmdDd,
		"apt":       cmdApt,
		"apt-get":   cmdApt,
		"yum":       cmdApt,
		"dnf":       cmdApt,
		"service":   cmdOk,
		"systemctl": cmdOk,
		"base64":    cmdBase64,
		"md5sum":    cmdHashFile,
		"sha256sum": cmdHashFile,
		"exit":      cmdExit,
		"logout":    cmdExit,
		"su":        cmdOk,
		"last":      cmdLast,
		"lspci":     cmdLspci,
		"openssl":   cmdOpenssl,
		"awk":       cmdAwk,
		"tr":        cmdTr,
		"cut":       cmdCut,
		"xargs":     cmdXargs,
		"true":      cmdOk,
		"false":     func(*Shell, []string, string) (string, int) { return "", 1 },
		"uptime2":   cmdUptime,
	}
}

func cmdOk(*Shell, []string, string) (string, int) { return "", 0 }

func cmdCd(sh *Shell, args []string, _ string) (string, int) {
	target := "/root"
	if len(args) > 0 {
		target = args[0]
	}
	if err := sh.FS.Chdir(target); err != nil {
		return fmt.Sprintf("-bash: cd: %s: No such file or directory\n", target), 1
	}
	sh.Env["PWD"] = sh.FS.Cwd()
	return "", 0
}

func cmdPwd(sh *Shell, _ []string, _ string) (string, int) {
	return sh.FS.Cwd() + "\n", 0
}

func cmdLs(sh *Shell, args []string, _ string) (string, int) {
	long := false
	all := false
	var paths []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			if strings.Contains(a, "l") {
				long = true
			}
			if strings.Contains(a, "a") {
				all = true
			}
			continue
		}
		paths = append(paths, a)
	}
	if len(paths) == 0 {
		paths = []string{sh.FS.Cwd()}
	}
	var b strings.Builder
	exit := 0
	for _, p := range paths {
		nodes, err := sh.FS.List(p)
		if err != nil {
			fmt.Fprintf(&b, "ls: cannot access '%s': No such file or directory\n", p)
			exit = 2
			continue
		}
		for _, n := range nodes {
			if !all && strings.HasPrefix(n.Name, ".") {
				continue
			}
			if long {
				kind := "-"
				if n.Dir {
					kind = "d"
				}
				fmt.Fprintf(&b, "%srwxr-xr-x 1 root root %8d %s %s\n",
					kind, n.Size, n.ModTime.Format("Jan _2 15:04"), n.Name)
			} else {
				b.WriteString(n.Name)
				b.WriteByte('\n')
			}
		}
	}
	return b.String(), exit
}

func cmdEcho(sh *Shell, args []string, _ string) (string, int) {
	interpret := false
	newline := true
	i := 0
	for i < len(args) && strings.HasPrefix(args[i], "-") {
		switch args[i] {
		case "-e":
			interpret = true
		case "-n":
			newline = false
		case "-ne", "-en":
			interpret = true
			newline = false
		default:
			goto done
		}
		i++
	}
done:
	out := strings.Join(args[i:], " ")
	if interpret {
		out = decodeEchoEscapes(out)
	}
	if newline {
		out += "\n"
	}
	return out, 0
}

func cmdCat(sh *Shell, args []string, stdin string) (string, int) {
	if len(args) == 0 {
		return stdin, 0
	}
	var b strings.Builder
	exit := 0
	for _, p := range args {
		if strings.HasPrefix(p, "-") {
			continue
		}
		content, err := sh.FS.ReadFile(p)
		if err != nil {
			fmt.Fprintf(&b, "cat: %s: No such file or directory\n", p)
			exit = 1
			continue
		}
		b.Write(content)
	}
	return b.String(), exit
}

func cmdRm(sh *Shell, args []string, _ string) (string, int) {
	recursive, force := false, false
	var paths []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			if strings.Contains(a, "r") || strings.Contains(a, "R") {
				recursive = true
			}
			if strings.Contains(a, "f") {
				force = true
			}
			continue
		}
		paths = append(paths, a)
	}
	var b strings.Builder
	exit := 0
	for _, p := range paths {
		if strings.ContainsAny(p, "*?") {
			// Glob deletion: emulate by clearing matching children.
			sh.removeGlob(p)
			continue
		}
		if err := sh.FS.Remove(p, recursive); err != nil && !force {
			fmt.Fprintf(&b, "rm: cannot remove '%s': No such file or directory\n", p)
			exit = 1
		}
	}
	return b.String(), exit
}

// removeGlob deletes children matching a trailing-star pattern like
// "/tmp/*" — the only glob form bots use in practice.
func (sh *Shell) removeGlob(pattern string) {
	dir := pattern[:strings.LastIndexByte(pattern, '/')+1]
	if dir == "" {
		dir = sh.FS.Cwd()
	}
	nodes, err := sh.FS.List(dir)
	if err != nil {
		return
	}
	suffix := pattern[strings.LastIndexByte(pattern, '/')+1:]
	for _, n := range nodes {
		if matchStar(suffix, n.Name) {
			_ = sh.FS.Remove(dir+"/"+n.Name, true)
		}
	}
}

// matchStar implements '*'-only glob matching.
func matchStar(pattern, name string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == name
	}
	if !strings.HasPrefix(name, parts[0]) {
		return false
	}
	name = name[len(parts[0]):]
	for _, part := range parts[1 : len(parts)-1] {
		i := strings.Index(name, part)
		if i < 0 {
			return false
		}
		name = name[i+len(part):]
	}
	return strings.HasSuffix(name, parts[len(parts)-1])
}

func cmdMkdir(sh *Shell, args []string, _ string) (string, int) {
	parents := false
	var paths []string
	for _, a := range args {
		if a == "-p" {
			parents = true
			continue
		}
		if strings.HasPrefix(a, "-") {
			continue
		}
		paths = append(paths, a)
	}
	var b strings.Builder
	exit := 0
	for _, p := range paths {
		var err error
		if parents {
			err = sh.FS.MkdirAll(p)
		} else {
			err = sh.FS.Mkdir(p)
		}
		if err != nil && !parents {
			fmt.Fprintf(&b, "mkdir: cannot create directory '%s': File exists\n", p)
			exit = 1
		}
	}
	return b.String(), exit
}

func cmdCp(sh *Shell, args []string, _ string) (string, int) {
	var paths []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			paths = append(paths, a)
		}
	}
	if len(paths) < 2 {
		return "cp: missing file operand\n", 1
	}
	content, err := sh.FS.ReadFile(paths[0])
	if err != nil {
		return fmt.Sprintf("cp: cannot stat '%s': No such file or directory\n", paths[0]), 1
	}
	dst := paths[len(paths)-1]
	if n, err := sh.FS.Stat(dst); err == nil && n.Dir {
		dst = dst + "/" + paths[0][strings.LastIndexByte(paths[0], '/')+1:]
	}
	if errors.Is(sh.FS.WriteFile(dst, content), vfs.ErrNoSpace) {
		return fmt.Sprintf("cp: error writing '%s': No space left on device\n", dst), 1
	}
	return "", 0
}

func cmdMv(sh *Shell, args []string, _ string) (string, int) {
	var paths []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			paths = append(paths, a)
		}
	}
	if len(paths) < 2 {
		return "mv: missing file operand\n", 1
	}
	src, dst := paths[0], paths[1]
	err := sh.FS.Rename(src, dst)
	switch {
	case err == nil:
		return "", 0
	case errors.Is(err, vfs.ErrPermission):
		// Rename puts a node moved onto a directory inside it.
		if n, err := sh.FS.Stat(dst); err == nil && n.Dir {
			dst = strings.TrimSuffix(dst, "/") + "/" + path.Base(src)
		}
		return fmt.Sprintf("mv: cannot move '%s' to a subdirectory of itself, '%s'\n", src, dst), 1
	}
	if _, err := sh.FS.Stat(src); err != nil {
		return fmt.Sprintf("mv: cannot stat '%s': No such file or directory\n", src), 1
	}
	return fmt.Sprintf("mv: cannot move '%s' to '%s': No such file or directory\n", src, dst), 1
}

func cmdChmod(sh *Shell, args []string, _ string) (string, int) {
	var paths []string
	mode := uint32(0o755)
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue // -R etc.
		}
		if m, err := strconv.ParseUint(a, 8, 32); err == nil && len(paths) == 0 && !strings.Contains(a, "/") {
			mode = uint32(m)
			continue
		}
		if strings.ContainsAny(a, "+-=") && !strings.Contains(a, "/") && len(paths) == 0 {
			continue // symbolic mode like +x, go=
		}
		paths = append(paths, a)
	}
	var b strings.Builder
	exit := 0
	for _, p := range paths {
		if err := sh.FS.Chmod(p, mode); err != nil {
			fmt.Fprintf(&b, "chmod: cannot access '%s': No such file or directory\n", p)
			exit = 1
		}
	}
	return b.String(), exit
}

func cmdTouch(sh *Shell, args []string, _ string) (string, int) {
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		if !sh.FS.Exists(a) {
			_ = sh.FS.WriteFile(a, nil)
		}
	}
	return "", 0
}

func cmdWget(sh *Shell, args []string, _ string) (string, int) {
	var uri, output string
	quiet := false
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-O" || a == "--output-document":
			if i+1 < len(args) {
				output = args[i+1]
				i++
			}
		case a == "-q" || a == "--quiet":
			quiet = true
		case strings.HasPrefix(a, "-"):
		default:
			if uri == "" {
				uri = a
			}
		}
	}
	if uri == "" {
		return "wget: missing URL\n", 1
	}
	if !strings.Contains(uri, "://") {
		uri = "http://" + uri
	}
	if output == "" {
		output = uriBasename(uri)
	}
	_, _, err := sh.fetch(uri, output)
	if err != nil {
		return fmt.Sprintf("wget: unable to resolve host address\n"), 4
	}
	if quiet {
		return "", 0
	}
	return fmt.Sprintf("--2024-01-01 00:00:00--  %s\nHTTP request sent, awaiting response... 200 OK\nSaving to: '%s'\n\n%s saved\n", uri, output, output), 0
}

func uriBasename(uri string) string {
	s := uri
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexByte(s, '?'); i >= 0 {
		s = s[:i]
	}
	base := s[strings.LastIndexByte(s, '/')+1:]
	if base == "" || !strings.Contains(s, "/") {
		return "index.html"
	}
	return base
}

func cmdCurl(sh *Shell, args []string, _ string) (string, int) {
	var uri, output string
	remoteName, silent := false, false
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-o" || a == "--output":
			if i+1 < len(args) {
				output = args[i+1]
				i++
			}
		case a == "-O" || a == "--remote-name":
			remoteName = true
		case a == "-s" || a == "--silent":
			silent = true
		case a == "-X" || a == "--request" || a == "--max-redirs" || a == "--cookie" ||
			a == "--referer" || a == "-H" || a == "--header" || a == "-d" || a == "--data":
			i++ // takes a value
		case strings.HasPrefix(a, "-"):
		default:
			if uri == "" {
				uri = a
			}
		}
	}
	if uri == "" {
		return "curl: try 'curl --help' for more information\n", 2
	}
	if !strings.Contains(uri, "://") {
		uri = "http://" + uri
	}
	if remoteName && output == "" {
		output = uriBasename(uri)
	}
	content, _, err := sh.fetch(uri, output)
	if err != nil {
		if silent {
			return "", 6
		}
		return fmt.Sprintf("curl: (6) Could not resolve host\n"), 6
	}
	if output != "" {
		return "", 0
	}
	return string(content), 0
}

func cmdTftp(sh *Shell, args []string, _ string) (string, int) {
	// Forms seen in the wild:
	//   tftp -g -r FILE HOST      (busybox)
	//   tftp HOST -c get FILE
	var host, file string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch a {
		case "-g", "-c", "get":
		case "-r", "-l":
			if i+1 < len(args) {
				file = args[i+1]
				i++
			}
		default:
			if strings.HasPrefix(a, "-") {
				continue
			}
			if host == "" {
				host = a
			} else if file == "" {
				file = a
			}
		}
	}
	if host == "" || file == "" {
		return "tftp: usage\n", 1
	}
	uri := "tftp://" + host + "/" + file
	if _, _, err := sh.fetch(uri, file); err != nil {
		return "tftp: timeout\n", 1
	}
	return "", 0
}

func cmdFtpget(sh *Shell, args []string, _ string) (string, int) {
	// busybox ftpget [-u user -p pass] HOST LOCAL REMOTE
	var rest []string
	for i := 0; i < len(args); i++ {
		if args[i] == "-u" || args[i] == "-p" || args[i] == "-P" {
			i++
			continue
		}
		if strings.HasPrefix(args[i], "-") {
			continue
		}
		rest = append(rest, args[i])
	}
	if len(rest) < 2 {
		return "ftpget: usage\n", 1
	}
	host, local := rest[0], rest[1]
	remote := local
	if len(rest) > 2 {
		remote = rest[2]
	}
	uri := "ftp://" + host + "/" + remote
	if _, _, err := sh.fetch(uri, local); err != nil {
		return "ftpget: can't connect to remote host\n", 1
	}
	return "", 0
}

func cmdUname(sh *Shell, args []string, _ string) (string, int) {
	const (
		s = "Linux"
		n = "svr04"
		r = "5.10.0-8-amd64"
		v = "#1 SMP Debian 5.10.46-4 (2021-08-03)"
		m = "x86_64"
		i = "unknown"
	)
	if len(args) == 0 {
		return s + "\n", 0
	}
	var fields []string
	for _, a := range args {
		switch a {
		case "-a", "--all":
			fields = []string{s, n, r, v, m, "GNU/Linux"}
		case "-s":
			fields = append(fields, s)
		case "-n":
			fields = append(fields, n)
		case "-r":
			fields = append(fields, r)
		case "-v":
			fields = append(fields, v)
		case "-m", "-p":
			fields = append(fields, m)
		case "-i":
			fields = append(fields, i)
		}
	}
	if len(fields) == 0 {
		return s + "\n", 0
	}
	return strings.Join(fields, " ") + "\n", 0
}

func cmdId(sh *Shell, _ []string, _ string) (string, int) {
	return "uid=0(root) gid=0(root) groups=0(root)\n", 0
}

func cmdWhoami(sh *Shell, _ []string, _ string) (string, int) {
	return sh.User + "\n", 0
}

func cmdHostname(sh *Shell, _ []string, _ string) (string, int) {
	return sh.Hostname + "\n", 0
}

func cmdNproc(*Shell, []string, string) (string, int) { return "2\n", 0 }

func cmdUptime(*Shell, []string, string) (string, int) {
	return " 11:52:43 up 12 days,  3:42,  1 user,  load average: 0.08, 0.02, 0.01\n", 0
}

func cmdW(sh *Shell, _ []string, _ string) (string, int) {
	return " 11:52:43 up 12 days,  3:42,  1 user,  load average: 0.08, 0.02, 0.01\n" +
		"USER     TTY      FROM             LOGIN@   IDLE   JCPU   PCPU WHAT\n" +
		"root     pts/0    203.0.113.7      11:52    0.00s  0.00s  0.00s w\n", 0
}

func cmdFree(_ *Shell, args []string, _ string) (string, int) {
	div := 1
	for _, a := range args {
		if a == "-m" {
			div = 1024
		}
	}
	total, used, free := 2048000/div, 472000/div, 1576000/div
	return fmt.Sprintf("              total        used        free      shared  buff/cache   available\nMem:        %7d     %7d     %7d        2580      320000     %7d\nSwap:             0           0           0\n",
		total, used, free, 1720000/div), 0
}

func cmdPs(*Shell, []string, string) (string, int) {
	return "  PID TTY          TIME CMD\n    1 ?        00:00:02 systemd\n  612 ?        00:00:00 sshd\n 1028 pts/0    00:00:00 bash\n 1243 pts/0    00:00:00 ps\n", 0
}

func cmdTop(*Shell, []string, string) (string, int) {
	return "top - 11:52:43 up 12 days,  3:42,  1 user,  load average: 0.08, 0.02, 0.01\nTasks:  81 total,   1 running,  80 sleeping,   0 stopped,   0 zombie\n%Cpu(s):  0.3 us,  0.3 sy,  0.0 ni, 99.3 id,  0.0 wa,  0.0 hi,  0.0 si,  0.0 st\n", 0
}

func cmdCrontab(sh *Shell, args []string, stdin string) (string, int) {
	if len(args) == 0 {
		if stdin != "" {
			_ = sh.FS.WriteFile("/var/spool/cron/root", []byte(stdin))
			return "", 0
		}
		return "usage: crontab [-l|-r|file]\n", 1
	}
	switch args[0] {
	case "-l":
		content, err := sh.FS.ReadFile("/var/spool/cron/root")
		if err != nil {
			return "no crontab for root\n", 1
		}
		return string(content), 0
	case "-r":
		_ = sh.FS.Remove("/var/spool/cron/root", false)
		return "", 0
	default:
		content, err := sh.FS.ReadFile(args[0])
		if err != nil {
			return fmt.Sprintf("crontab: %s: No such file or directory\n", args[0]), 1
		}
		_ = sh.FS.WriteFile("/var/spool/cron/root", content)
		return "", 0
	}
}

func cmdPasswd(sh *Shell, _ []string, _ string) (string, int) {
	// Non-interactive honeypot: pretend success and mark shadow touched.
	_ = sh.FS.WriteFile("/etc/shadow", []byte("root:$6$changed$:19000:0:99999:7:::\n"))
	return "passwd: password updated successfully\n", 0
}

func cmdChpasswd(sh *Shell, _ []string, stdin string) (string, int) {
	if strings.TrimSpace(stdin) == "" {
		return "", 0
	}
	_ = sh.FS.WriteFile("/etc/shadow", []byte("root:$6$"+vfs.HashBytes([]byte(stdin))[:16]+"$:19000:0:99999:7:::\n"))
	return "", 0
}

func cmdExport(sh *Shell, args []string, _ string) (string, int) {
	for _, a := range args {
		if eq := strings.IndexByte(a, '='); eq > 0 {
			sh.Env[a[:eq]] = a[eq+1:]
		}
	}
	return "", 0
}

func cmdUnset(sh *Shell, args []string, _ string) (string, int) {
	for _, a := range args {
		delete(sh.Env, a)
	}
	return "", 0
}

func cmdWhich(sh *Shell, args []string, _ string) (string, int) {
	var b strings.Builder
	exit := 0
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		if _, ok := builtins[a]; ok {
			fmt.Fprintf(&b, "/usr/bin/%s\n", a)
		} else {
			exit = 1
		}
	}
	return b.String(), exit
}

func cmdGrep(sh *Shell, args []string, stdin string) (string, int) {
	invert, countOnly, ignoreCase := false, false, false
	var pattern string
	var files []string
	for _, a := range args {
		switch {
		case a == "-v":
			invert = true
		case a == "-c":
			countOnly = true
		case a == "-i":
			ignoreCase = true
		case strings.HasPrefix(a, "-"):
		case pattern == "":
			pattern = a
		default:
			files = append(files, a)
		}
	}
	input := stdin
	if len(files) > 0 {
		var b strings.Builder
		for _, f := range files {
			content, err := sh.FS.ReadFile(f)
			if err == nil {
				b.Write(content)
			}
		}
		input = b.String()
	}
	var out []string
	match := pattern
	if ignoreCase {
		match = strings.ToLower(pattern)
	}
	for _, line := range strings.Split(strings.TrimRight(input, "\n"), "\n") {
		hay := line
		if ignoreCase {
			hay = strings.ToLower(line)
		}
		if strings.Contains(hay, match) != invert && line != "" {
			out = append(out, line)
		}
	}
	if countOnly {
		return fmt.Sprintf("%d\n", len(out)), boolExit(len(out) > 0)
	}
	if len(out) == 0 {
		return "", 1
	}
	return strings.Join(out, "\n") + "\n", 0
}

func boolExit(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

func cmdWc(_ *Shell, args []string, stdin string) (string, int) {
	lines := strings.Count(stdin, "\n")
	for _, a := range args {
		if a == "-l" {
			return fmt.Sprintf("%d\n", lines), 0
		}
	}
	words := len(strings.Fields(stdin))
	return fmt.Sprintf("%7d %7d %7d\n", lines, words, len(stdin)), 0
}

func cmdHead(sh *Shell, args []string, stdin string) (string, int) {
	return headTail(sh, args, stdin, true)
}

func cmdTail(sh *Shell, args []string, stdin string) (string, int) {
	return headTail(sh, args, stdin, false)
}

func headTail(sh *Shell, args []string, stdin string, head bool) (string, int) {
	n := 10
	var files []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-n" && i+1 < len(args):
			if v, err := strconv.Atoi(args[i+1]); err == nil {
				n = v
			}
			i++
		case strings.HasPrefix(a, "-n"):
			if v, err := strconv.Atoi(a[2:]); err == nil {
				n = v
			}
		case strings.HasPrefix(a, "-"):
			if v, err := strconv.Atoi(a[1:]); err == nil {
				n = v
			}
		default:
			files = append(files, a)
		}
	}
	if n < 0 {
		// GNU head/tail interpret negative counts specially; the
		// emulation clamps them — attackers probe exactly this.
		n = 0
	}
	input := stdin
	if len(files) > 0 {
		content, err := sh.FS.ReadFile(files[0])
		if err != nil {
			return fmt.Sprintf("head: cannot open '%s' for reading: No such file or directory\n", files[0]), 1
		}
		input = string(content)
	}
	lines := strings.Split(strings.TrimRight(input, "\n"), "\n")
	if len(lines) > n {
		if head {
			lines = lines[:n]
		} else {
			lines = lines[len(lines)-n:]
		}
	}
	if len(lines) == 1 && lines[0] == "" {
		return "", 0
	}
	return strings.Join(lines, "\n") + "\n", 0
}

func cmdSort(_ *Shell, _ []string, stdin string) (string, int) {
	lines := strings.Split(strings.TrimRight(stdin, "\n"), "\n")
	// Simple lexicographic sort without importing sort in a hot path.
	for i := 1; i < len(lines); i++ {
		for j := i; j > 0 && lines[j] < lines[j-1]; j-- {
			lines[j], lines[j-1] = lines[j-1], lines[j]
		}
	}
	if len(lines) == 1 && lines[0] == "" {
		return "", 0
	}
	return strings.Join(lines, "\n") + "\n", 0
}

func cmdHistory(sh *Shell, args []string, _ string) (string, int) {
	if len(args) > 0 && args[0] == "-c" {
		return "", 0
	}
	var b strings.Builder
	for i, c := range sh.commands {
		fmt.Fprintf(&b, "%5d  %s\n", i+1, c.Raw)
	}
	return b.String(), 0
}

func cmdLscpu(*Shell, []string, string) (string, int) {
	return "Architecture:        x86_64\nCPU op-mode(s):      32-bit, 64-bit\nByte Order:          Little Endian\nCPU(s):              2\nVendor ID:           GenuineIntel\nModel name:          Intel(R) Xeon(R) CPU E5-2686 v4 @ 2.30GHz\n", 0
}

func cmdDf(*Shell, []string, string) (string, int) {
	return "Filesystem     1K-blocks    Used Available Use% Mounted on\n/dev/sda1       20509264 3524204  15920196  19% /\ntmpfs            1024000       0   1024000   0% /dev/shm\n", 0
}

func cmdMount(*Shell, []string, string) (string, int) {
	return "/dev/sda1 on / type ext4 (rw,relatime,errors=remount-ro)\nproc on /proc type proc (rw,nosuid,nodev,noexec,relatime)\n", 0
}

func cmdIfconfig(*Shell, []string, string) (string, int) {
	return "eth0: flags=4163<UP,BROADCAST,RUNNING,MULTICAST>  mtu 1500\n        inet 192.168.1.105  netmask 255.255.255.0  broadcast 192.168.1.255\n        ether 52:54:00:2f:35:a1  txqueuelen 1000  (Ethernet)\n", 0
}

func cmdIp(_ *Shell, args []string, _ string) (string, int) {
	if len(args) > 0 && (args[0] == "a" || args[0] == "addr") {
		return "1: lo: <LOOPBACK,UP,LOWER_UP> mtu 65536\n    inet 127.0.0.1/8 scope host lo\n2: eth0: <BROADCAST,MULTICAST,UP,LOWER_UP> mtu 1500\n    inet 192.168.1.105/24 brd 192.168.1.255 scope global eth0\n", 0
	}
	return "", 0
}

func cmdNetstat(*Shell, []string, string) (string, int) {
	return "Active Internet connections (servers and established)\nProto Recv-Q Send-Q Local Address           Foreign Address         State\ntcp        0      0 0.0.0.0:22              0.0.0.0:*               LISTEN\n", 0
}

func cmdSh(sh *Shell, args []string, stdin string) (string, int) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-c" && i+1 < len(args) {
			out, exit := sh.eval(args[i+1], stdin)
			return out, exit
		}
		if strings.HasPrefix(a, "-") {
			continue
		}
		// "sh file": execute the file — a file-exec attempt.
		return sh.attemptExec(a)
	}
	return "", 0
}

// busyboxApplets are the applets our busybox emulation dispatches; the
// Mirai-style probe `/bin/busybox RANDOM` hits the fallback reply.
var busyboxApplets = map[string]bool{
	"cat": true, "echo": true, "wget": true, "tftp": true, "ftpget": true,
	"chmod": true, "rm": true, "cp": true, "mv": true, "mkdir": true,
	"ls": true, "ps": true, "kill": true, "dd": true, "sh": true,
}

func cmdBusybox(sh *Shell, args []string, stdin string) (string, int) {
	if len(args) == 0 {
		return "BusyBox v1.30.1 (Debian 1:1.30.1-6+b3) multi-call binary.\nBusyBox is copyrighted by many authors between 1998-2015.\nUsage: busybox [function [arguments]...]\n", 0
	}
	applet := args[0]
	if fn, ok := builtins[applet]; ok && busyboxApplets[applet] {
		return fn(sh, args[1:], stdin)
	}
	return fmt.Sprintf("%s: applet not found\n", applet), 127
}

func cmdDd(sh *Shell, args []string, _ string) (string, int) {
	var input string
	count := -1
	bs := 512
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "if="):
			input = a[3:]
		case strings.HasPrefix(a, "bs="):
			if v, err := strconv.Atoi(a[3:]); err == nil {
				bs = v
			}
		case strings.HasPrefix(a, "count="):
			if v, err := strconv.Atoi(a[6:]); err == nil {
				count = v
			}
		}
	}
	if input == "" {
		return "", 0
	}
	content, err := sh.FS.ReadFile(input)
	if err != nil {
		return fmt.Sprintf("dd: failed to open '%s': No such file or directory\n", input), 1
	}
	if count > 0 && bs*count < len(content) {
		content = content[:bs*count]
	}
	return string(content) + fmt.Sprintf("\n%d+0 records in\n%d+0 records out\n", count, count), 0
}

func cmdApt(_ *Shell, args []string, _ string) (string, int) {
	if len(args) > 0 && args[0] == "install" {
		return "Reading package lists... Done\nBuilding dependency tree... Done\nE: Unable to locate package " + strings.Join(args[1:], " ") + "\n", 100
	}
	return "Reading package lists... Done\n", 0
}

func cmdBase64(_ *Shell, args []string, stdin string) (string, int) {
	decode := false
	for _, a := range args {
		if a == "-d" || a == "--decode" {
			decode = true
		}
	}
	data := strings.TrimSpace(stdin)
	if decode {
		out, err := base64.StdEncoding.DecodeString(data)
		if err != nil {
			return "base64: invalid input\n", 1
		}
		return string(out), 0
	}
	return base64.StdEncoding.EncodeToString([]byte(stdin)) + "\n", 0
}

func cmdHashFile(sh *Shell, args []string, stdin string) (string, int) {
	var b strings.Builder
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		if h, ok := sh.FS.HashOf(a); ok {
			fmt.Fprintf(&b, "%s  %s\n", h, a)
		} else {
			fmt.Fprintf(&b, "sha256sum: %s: No such file or directory\n", a)
		}
	}
	if b.Len() == 0 && stdin != "" {
		fmt.Fprintf(&b, "%s  -\n", vfs.HashBytes([]byte(stdin)))
	}
	return b.String(), 0
}

func cmdExit(sh *Shell, _ []string, _ string) (string, int) {
	sh.exited = true
	return "", 0
}

func cmdLast(*Shell, []string, string) (string, int) {
	return "root     pts/0        203.0.113.7      Mon Jan  1 11:50   still logged in\nreboot   system boot  5.10.0-8-amd64   Mon Dec 18 08:10   still running\n", 0
}

func cmdLspci(*Shell, []string, string) (string, int) {
	return "00:00.0 Host bridge: Intel Corporation 440FX - 82441FX PMC [Natoma]\n00:03.0 Ethernet controller: Red Hat, Inc. Virtio network device\n", 0
}

func cmdOpenssl(_ *Shell, args []string, stdin string) (string, int) {
	if len(args) > 0 && args[0] == "passwd" {
		// openssl passwd -1 SALTPASS style: return a fake MD5-crypt hash.
		seed := strings.Join(args[1:], "")
		if stdin != "" {
			seed += stdin
		}
		return "$1$" + vfs.HashBytes([]byte(seed))[:8] + "$" + vfs.HashBytes([]byte(seed))[8:30] + "\n", 0
	}
	return "OpenSSL 1.1.1n  15 Mar 2022\n", 0
}

// cmdAwk implements the '{print $N,...}' subset bots use for recon.
func cmdAwk(_ *Shell, args []string, stdin string) (string, int) {
	var prog string
	for _, a := range args {
		if strings.Contains(a, "print") {
			prog = a
		}
	}
	if prog == "" {
		return "", 0
	}
	start := strings.Index(prog, "print")
	spec := strings.Trim(prog[start+5:], " {};'")
	var cols []int
	for _, f := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ' ' }) {
		if strings.HasPrefix(f, "$") {
			if v, err := strconv.Atoi(f[1:]); err == nil {
				cols = append(cols, v)
			}
		}
	}
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimRight(stdin, "\n"), "\n") {
		fields := strings.Fields(line)
		var parts []string
		for _, c := range cols {
			if c == 0 {
				parts = append(parts, line)
			} else if c-1 < len(fields) {
				parts = append(parts, fields[c-1])
			}
		}
		out.WriteString(strings.Join(parts, " "))
		out.WriteByte('\n')
	}
	return out.String(), 0
}

func cmdTr(_ *Shell, args []string, stdin string) (string, int) {
	if len(args) >= 2 && len(args[0]) == len(args[1]) {
		out := stdin
		for i := 0; i < len(args[0]); i++ {
			out = strings.ReplaceAll(out, string(args[0][i]), string(args[1][i]))
		}
		return out, 0
	}
	return stdin, 0
}

func cmdCut(_ *Shell, args []string, stdin string) (string, int) {
	delim := "\t"
	var field int
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case strings.HasPrefix(a, "-d"):
			if len(a) > 2 {
				delim = a[2:]
			} else if i+1 < len(args) {
				delim = args[i+1]
				i++
			}
		case strings.HasPrefix(a, "-f"):
			s := a[2:]
			if s == "" && i+1 < len(args) {
				s = args[i+1]
				i++
			}
			if v, err := strconv.Atoi(s); err == nil {
				field = v
			}
		}
	}
	if field == 0 {
		return stdin, 0
	}
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimRight(stdin, "\n"), "\n") {
		parts := strings.Split(line, delim)
		if field-1 < len(parts) {
			out.WriteString(parts[field-1])
		}
		out.WriteByte('\n')
	}
	return out.String(), 0
}

func cmdXargs(sh *Shell, args []string, stdin string) (string, int) {
	if len(args) == 0 {
		return "", 0
	}
	full := strings.Join(args, " ") + " " + strings.Join(strings.Fields(stdin), " ")
	out, exit := sh.eval(full, "")
	return out, exit
}

// cmdPrintf implements the printf subset droppers use: %s/%d pass-through
// and the same escape sequences as echo -e. `printf '\x7f\x45\x4c\x46'`
// is a common ELF-drop vector.
func cmdPrintf(_ *Shell, args []string, _ string) (string, int) {
	if len(args) == 0 {
		return "", 1
	}
	format := decodeEchoEscapes(args[0])
	rest := args[1:]
	var b strings.Builder
	ri := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			b.WriteByte(c)
			continue
		}
		i++
		switch format[i] {
		case 's', 'd', 'x', 'b':
			if ri < len(rest) {
				b.WriteString(rest[ri])
				ri++
			}
		case '%':
			b.WriteByte('%')
		default:
			b.WriteByte('%')
			b.WriteByte(format[i])
		}
	}
	return b.String(), 0
}

// cmdEnv prints the environment, one VAR=value per line, sorted.
func cmdEnv(sh *Shell, _ []string, _ string) (string, int) {
	keys := make([]string, 0, len(sh.Env))
	for k := range sh.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, sh.Env[k])
	}
	return b.String(), 0
}

// cmdLn emulates hard/symbolic links as content copies — enough for the
// persistence tricks bots attempt.
func cmdLn(sh *Shell, args []string, _ string) (string, int) {
	var paths []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			paths = append(paths, a)
		}
	}
	if len(paths) < 2 {
		return "ln: missing file operand\n", 1
	}
	content, err := sh.FS.ReadFile(paths[0])
	if err != nil {
		return fmt.Sprintf("ln: failed to access '%s': No such file or directory\n", paths[0]), 1
	}
	_ = sh.FS.WriteFile(paths[1], content)
	return "", 0
}

// cmdStat prints minimal stat(1) output.
func cmdStat(sh *Shell, args []string, _ string) (string, int) {
	var b strings.Builder
	exit := 0
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		n, err := sh.FS.Stat(a)
		if err != nil {
			fmt.Fprintf(&b, "stat: cannot stat '%s': No such file or directory\n", a)
			exit = 1
			continue
		}
		kind := "regular file"
		if n.Dir {
			kind = "directory"
		}
		fmt.Fprintf(&b, "  File: %s\n  Size: %d\t%s\nModify: %s\n",
			a, n.Size, kind, n.ModTime.Format("2006-01-02 15:04:05"))
	}
	return b.String(), exit
}

// cmdFile reports a coarse file type: ELF binaries, scripts, text.
func cmdFile(sh *Shell, args []string, _ string) (string, int) {
	var b strings.Builder
	exit := 0
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		n, err := sh.FS.Stat(a)
		if err != nil {
			fmt.Fprintf(&b, "%s: cannot open: No such file or directory\n", a)
			exit = 1
			continue
		}
		switch {
		case n.Dir:
			fmt.Fprintf(&b, "%s: directory\n", a)
		case strings.HasPrefix(string(n.Content), "\x7fELF"):
			fmt.Fprintf(&b, "%s: ELF 64-bit LSB executable, x86-64\n", a)
		case strings.HasPrefix(string(n.Content), "#!"):
			fmt.Fprintf(&b, "%s: POSIX shell script, ASCII text executable\n", a)
		default:
			fmt.Fprintf(&b, "%s: ASCII text\n", a)
		}
	}
	return b.String(), exit
}

// cmdFind lists paths beneath a directory, with the -name glob bots use
// to locate planted files.
func cmdFind(sh *Shell, args []string, _ string) (string, int) {
	root := sh.FS.Cwd()
	pattern := ""
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-name" && i+1 < len(args):
			pattern = args[i+1]
			i++
		case a == "-type" && i+1 < len(args):
			i++
		case strings.HasPrefix(a, "-"):
		default:
			root = a
		}
	}
	var out []string
	var walk func(p string)
	walk = func(p string) {
		if len(out) > 4096 {
			return
		}
		nodes, err := sh.FS.List(p)
		if err != nil {
			return
		}
		for _, n := range nodes {
			child := p + "/" + n.Name
			if p == "/" {
				child = "/" + n.Name
			}
			if pattern == "" || matchStar(pattern, n.Name) {
				out = append(out, child)
			}
			if n.Dir {
				walk(child)
			}
		}
	}
	if n, err := sh.FS.Stat(root); err != nil {
		return fmt.Sprintf("find: '%s': No such file or directory\n", root), 1
	} else if !n.Dir {
		return sh.FS.Abs(root) + "\n", 0
	}
	abs := sh.FS.Abs(root)
	if pattern == "" {
		out = append(out, abs)
	}
	walk(abs)
	if len(out) == 0 {
		return "", 0
	}
	return strings.Join(out, "\n") + "\n", 0
}

// cmdNohup runs the rest of the line, discarding the "ignoring input"
// notice real nohup prints.
func cmdNohup(sh *Shell, args []string, stdin string) (string, int) {
	if len(args) == 0 {
		return "nohup: missing operand\n", 125
	}
	out, exit := sh.eval(strings.Join(args, " "), stdin)
	return out, exit
}

func cmdDmesg(*Shell, []string, string) (string, int) {
	return "[    0.000000] Linux version 5.10.0-8-amd64 (debian-kernel@lists.debian.org)\n[    0.004000] Command line: BOOT_IMAGE=/boot/vmlinuz-5.10.0-8-amd64 root=/dev/sda1 ro quiet\n", 0
}

func cmdRoute(*Shell, []string, string) (string, int) {
	return "Kernel IP routing table\nDestination     Gateway         Genmask         Flags Metric Ref    Use Iface\ndefault         192.168.1.1     0.0.0.0         UG    0      0        0 eth0\n192.168.1.0     0.0.0.0         255.255.255.0   U     0      0        0 eth0\n", 0
}

func cmdArp(*Shell, []string, string) (string, int) {
	return "Address                  HWtype  HWaddress           Flags Mask            Iface\n192.168.1.1              ether   00:1a:2b:3c:4d:5e   C                     eth0\n", 0
}

func cmdDate(*Shell, []string, string) (string, int) {
	// A fixed plausible timestamp: the honeypot must not leak wall time
	// drift between sessions.
	return "Mon Jan  1 11:52:43 UTC 2024\n", 0
}

func init() {
	builtins["printf"] = cmdPrintf
	builtins["env"] = cmdEnv
	builtins["ln"] = cmdLn
	builtins["stat"] = cmdStat
	builtins["file"] = cmdFile
	builtins["find"] = cmdFind
	builtins["nohup"] = cmdNohup
	builtins["setsid"] = cmdNohup
	builtins["dmesg"] = cmdDmesg
	builtins["route"] = cmdRoute
	builtins["arp"] = cmdArp
	builtins["date"] = cmdDate
}
