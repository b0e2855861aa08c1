package shell

import (
	"bytes"
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
// stdin text; it writes through the shell's fd table (print, fail) and
// returns its exit status.
type builtinFunc func(sh *Shell, args []string, stdin string) int

// builtins maps command base names to their emulations. This is the
// honeypot's "known command" set; anything else is recorded as unknown.
var builtins map[string]builtinFunc

func init() {
	builtins = map[string]builtinFunc{
		"cd":       cmdCd,
		"pwd":      func(sh *Shell, _ []string, _ string) int { return sh.print(sh.FS.Cwd() + "\n") },
		"ls":       cmdLs,
		"echo":     cmdEcho,
		"cat":      cmdCat,
		"rm":       cmdRm,
		"mkdir":    cmdMkdir,
		"cp":       cmdCp,
		"mv":       cmdMv,
		"chmod":    cmdChmod,
		"chown":    cmdOk,
		"chattr":   cmdOk,
		"touch":    cmdTouch,
		"wget":     cmdWget,
		"curl":     cmdCurl,
		"tftp":     cmdTftp,
		"ftpget":   cmdFtpget,
		"uname":    cmdUname,
		"id":       text("uid=0(root) gid=0(root) groups=0(root)\n"),
		"whoami":   func(sh *Shell, _ []string, _ string) int { return sh.print(sh.User + "\n") },
		"hostname": func(sh *Shell, _ []string, _ string) int { return sh.print(sh.Hostname + "\n") },
		"nproc":    text("2\n"),
		"uptime":   text(uptime),
		"w": text(uptime +
			"USER     TTY      FROM             LOGIN@   IDLE   JCPU   PCPU WHAT\n" +
			"root     pts/0    203.0.113.7      11:52    0.00s  0.00s  0.00s w\n"),
		"free":      cmdFree,
		"ps":        text("  PID TTY          TIME CMD\n    1 ?        00:00:02 systemd\n  612 ?        00:00:00 sshd\n 1028 pts/0    00:00:00 bash\n 1243 pts/0    00:00:00 ps\n"),
		"top":       text("top -" + uptime + "Tasks:  81 total,   1 running,  80 sleeping,   0 stopped,   0 zombie\n%Cpu(s):  0.3 us,  0.3 sy,  0.0 ni, 99.3 id,  0.0 wa,  0.0 hi,  0.0 si,  0.0 st\n"),
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
		"head":      func(sh *Shell, args []string, stdin string) int { return headTail(sh, args, stdin, true) },
		"tail":      func(sh *Shell, args []string, stdin string) int { return headTail(sh, args, stdin, false) },
		"sort":      cmdSort,
		"history":   cmdHistory,
		"lscpu":     text("Architecture:        x86_64\nCPU op-mode(s):      32-bit, 64-bit\nByte Order:          Little Endian\nCPU(s):              2\nVendor ID:           GenuineIntel\nModel name:          Intel(R) Xeon(R) CPU E5-2686 v4 @ 2.30GHz\n"),
		"df":        text("Filesystem     1K-blocks    Used Available Use% Mounted on\n/dev/sda1       20509264 3524204  15920196  19% /\ntmpfs            1024000       0   1024000   0% /dev/shm\n"),
		"mount":     text("/dev/sda1 on / type ext4 (rw,relatime,errors=remount-ro)\nproc on /proc type proc (rw,nosuid,nodev,noexec,relatime)\n"),
		"ifconfig":  text("eth0: flags=4163<UP,BROADCAST,RUNNING,MULTICAST>  mtu 1500\n        inet 192.168.1.105  netmask 255.255.255.0  broadcast 192.168.1.255\n        ether 52:54:00:2f:35:a1  txqueuelen 1000  (Ethernet)\n"),
		"ip":        cmdIp,
		"netstat":   text("Active Internet connections (servers and established)\nProto Recv-Q Send-Q Local Address           Foreign Address         State\ntcp        0      0 0.0.0.0:22              0.0.0.0:*               LISTEN\n"),
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
		"last":      text("root     pts/0        203.0.113.7      Mon Jan  1 11:50   still logged in\nreboot   system boot  5.10.0-8-amd64   Mon Dec 18 08:10   still running\n"),
		"lspci":     text("00:00.0 Host bridge: Intel Corporation 440FX - 82441FX PMC [Natoma]\n00:03.0 Ethernet controller: Red Hat, Inc. Virtio network device\n"),
		"openssl":   cmdOpenssl,
		"awk":       cmdAwk,
		"tr":        cmdTr,
		"cut":       cmdCut,
		"xargs":     cmdXargs,
		"true":      cmdOk,
		"false":     func(*Shell, []string, string) int { return 1 },
		"uptime2":   text(uptime),
		"printf":    cmdPrintf,
		"env":       cmdEnv,
		"ln":        cmdLn,
		"stat":      cmdStat,
		"file":      cmdFile,
		"find":      cmdFind,
		"nohup":     cmdNohup,
		"setsid":    cmdNohup,
		"dmesg":     text("[    0.000000] Linux version 5.10.0-8-amd64 (debian-kernel@lists.debian.org)\n[    0.004000] Command line: BOOT_IMAGE=/boot/vmlinuz-5.10.0-8-amd64 root=/dev/sda1 ro quiet\n"),
		"route":     text("Kernel IP routing table\nDestination     Gateway         Genmask         Flags Metric Ref    Use Iface\ndefault         192.168.1.1     0.0.0.0         UG    0      0        0 eth0\n192.168.1.0     0.0.0.0         255.255.255.0   U     0      0        0 eth0\n"),
		"arp":       text("Address                  HWtype  HWaddress           Flags Mask            Iface\n192.168.1.1              ether   00:1a:2b:3c:4d:5e   C                     eth0\n"),
		// A fixed plausible timestamp: the honeypot must not leak wall
		// time drift between sessions.
		"date": text("Mon Jan  1 11:52:43 UTC 2024\n"),
	}
}

// uptime is the load line of uptime, w and top.
const uptime = " 11:52:43 up 12 days,  3:42,  1 user,  load average: 0.08, 0.02, 0.01\n"

// text is a builtin that prints fixed text.
func text(s string) builtinFunc {
	return func(sh *Shell, _ []string, _ string) int { return sh.print(s) }
}

func cmdOk(sh *Shell, _ []string, _ string) int { return 0 }

func cmdCd(sh *Shell, args []string, _ string) int {
	target := "/root"
	if len(args) > 0 {
		target = args[0]
	}
	if err := sh.FS.Chdir(target); err != nil {
		return sh.fail(1, "-bash: cd: %s: No such file or directory\n", target)
	}
	sh.Env["PWD"] = sh.FS.Cwd()
	return 0
}

func cmdLs(sh *Shell, args []string, _ string) int {
	long, all := false, false
	var paths []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			long = long || strings.Contains(a, "l")
			all = all || strings.Contains(a, "a")
			continue
		}
		paths = append(paths, a)
	}
	if len(paths) == 0 {
		paths = []string{sh.FS.Cwd()}
	}
	exit := 0
	for _, p := range paths {
		nodes, err := sh.FS.List(p)
		if err != nil {
			exit = sh.fail(2, "ls: cannot access '%s': No such file or directory\n", p)
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
				fmt.Fprintf(sh.fd[1], "%srwxr-xr-x 1 root root %8d %s %s\n",
					kind, n.Size, n.ModTime.Format("Jan _2 15:04"), n.Name)
			} else {
				sh.print(n.Name + "\n")
			}
		}
	}
	return exit
}

func cmdEcho(sh *Shell, args []string, _ string) int {
	interpret, newline, i := false, true, 0
	for ; i < len(args); i++ {
		switch args[i] {
		case "-e":
			interpret = true
		case "-n":
			newline = false
		case "-ne", "-en":
			interpret, newline = true, false
		default:
			goto done
		}
	}
done:
	out := strings.Join(args[i:], " ")
	if interpret {
		out = decodeEchoEscapes(out)
	}
	if newline {
		out += "\n"
	}
	return sh.print(out)
}

func cmdCat(sh *Shell, args []string, stdin string) int {
	if len(args) == 0 {
		return sh.print(stdin)
	}
	exit := 0
	for _, p := range args {
		if strings.HasPrefix(p, "-") {
			continue
		}
		if content, err := sh.FS.ReadFile(p); err != nil {
			exit = sh.fail(1, "cat: %s: %s\n", p, strerror(err))
		} else {
			sh.fd[1].Write(content)
		}
	}
	return exit
}

func cmdRm(sh *Shell, args []string, _ string) int {
	recursive, force := false, false
	var paths []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			recursive = recursive || strings.ContainsAny(a, "rR")
			force = force || strings.Contains(a, "f")
			continue
		}
		paths = append(paths, a)
	}
	exit := 0
	for _, p := range paths {
		if strings.ContainsAny(p, "*?") {
			// Glob deletion: emulate by clearing matching children.
			sh.removeGlob(p)
			continue
		}
		if err := sh.FS.Remove(p, recursive); err != nil && !force {
			exit = sh.fail(1, "rm: cannot remove '%s': No such file or directory\n", p)
		}
	}
	return exit
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

func cmdMkdir(sh *Shell, args []string, _ string) int {
	parents := false
	var paths []string
	for _, a := range args {
		if a == "-p" {
			parents = true
		} else if !strings.HasPrefix(a, "-") {
			paths = append(paths, a)
		}
	}
	exit := 0
	for _, p := range paths {
		if parents {
			_ = sh.FS.MkdirAll(p)
		} else if err := sh.FS.Mkdir(p); err != nil {
			exit = sh.fail(1, "mkdir: cannot create directory '%s': %s\n", p, strerror(err))
		}
	}
	return exit
}

func cmdCp(sh *Shell, args []string, _ string) int {
	var paths []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			paths = append(paths, a)
		}
	}
	if len(paths) < 2 {
		return sh.fail(1, "cp: missing file operand\n")
	}
	content, err := sh.FS.ReadFile(paths[0])
	if err != nil {
		return sh.fail(1, "cp: cannot stat '%s': No such file or directory\n", paths[0])
	}
	dst := paths[len(paths)-1]
	if n, err := sh.FS.Stat(dst); err == nil && n.Dir {
		dst = dst + "/" + paths[0][strings.LastIndexByte(paths[0], '/')+1:]
	}
	if errors.Is(sh.FS.WriteFile(dst, content), vfs.ErrNoSpace) {
		return sh.fail(1, "cp: error writing '%s': No space left on device\n", dst)
	}
	return 0
}

func cmdMv(sh *Shell, args []string, _ string) int {
	var paths []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			paths = append(paths, a)
		}
	}
	if len(paths) < 2 {
		return sh.fail(1, "mv: missing file operand\n")
	}
	src, dst := paths[0], paths[1]
	err := sh.FS.Rename(src, dst)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, vfs.ErrPermission):
		// Rename puts a node moved onto a directory inside it.
		if n, err := sh.FS.Stat(dst); err == nil && n.Dir {
			dst = strings.TrimSuffix(dst, "/") + "/" + path.Base(src)
		}
		return sh.fail(1, "mv: cannot move '%s' to a subdirectory of itself, '%s'\n", src, dst)
	}
	if _, err := sh.FS.Stat(src); err != nil {
		return sh.fail(1, "mv: cannot stat '%s': No such file or directory\n", src)
	}
	return sh.fail(1, "mv: cannot move '%s' to '%s': No such file or directory\n", src, dst)
}

func cmdChmod(sh *Shell, args []string, _ string) int {
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
	exit := 0
	for _, p := range paths {
		if err := sh.FS.Chmod(p, mode); err != nil {
			exit = sh.fail(1, "chmod: cannot access '%s': No such file or directory\n", p)
		}
	}
	return exit
}

func cmdTouch(sh *Shell, args []string, _ string) int {
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		if !sh.FS.Exists(a) {
			_ = sh.FS.WriteFile(a, nil)
		}
	}
	return 0
}

func cmdWget(sh *Shell, args []string, _ string) int {
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
		return sh.fail(1, "wget: missing URL\n")
	}
	if !strings.Contains(uri, "://") {
		uri = "http://" + uri
	}
	if output == "" {
		output = uriBasename(uri)
	}
	_, _, err := sh.fetch(uri, output)
	if err != nil {
		return sh.fail(4, "wget: unable to resolve host address\n")
	}
	if quiet {
		return 0
	}
	return sh.fail(0, "--2024-01-01 00:00:00--  %s\nHTTP request sent, awaiting response... 200 OK\nSaving to: '%s'\n\n%s saved\n", uri, output, output) // wget logs to standard error
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

func cmdCurl(sh *Shell, args []string, _ string) int {
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
		return sh.fail(2, "curl: try 'curl --help' for more information\n")
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
			return 6
		}
		return sh.fail(6, "curl: (6) Could not resolve host\n")
	}
	if output == "" {
		sh.fd[1].Write(content)
	}
	return 0
}

func cmdTftp(sh *Shell, args []string, _ string) int {
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
		return sh.fail(1, "tftp: usage\n")
	}
	uri := "tftp://" + host + "/" + file
	if _, _, err := sh.fetch(uri, file); err != nil {
		return sh.fail(1, "tftp: timeout\n")
	}
	return 0
}

func cmdFtpget(sh *Shell, args []string, _ string) int {
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
		return sh.fail(1, "ftpget: usage\n")
	}
	host, local := rest[0], rest[1]
	remote := local
	if len(rest) > 2 {
		remote = rest[2]
	}
	uri := "ftp://" + host + "/" + remote
	if _, _, err := sh.fetch(uri, local); err != nil {
		return sh.fail(1, "ftpget: can't connect to remote host\n")
	}
	return 0
}

func cmdUname(sh *Shell, args []string, _ string) int {
	const (
		s = "Linux"
		n = "svr04"
		r = "5.10.0-8-amd64"
		v = "#1 SMP Debian 5.10.46-4 (2021-08-03)"
		m = "x86_64"
		i = "unknown"
	)
	if len(args) == 0 {
		return sh.print(s + "\n")
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
		return sh.print(s + "\n")
	}
	return sh.print(strings.Join(fields, " ") + "\n")
}

func cmdFree(sh *Shell, args []string, _ string) int {
	div := 1
	for _, a := range args {
		if a == "-m" {
			div = 1024
		}
	}
	total, used, free := 2048000/div, 472000/div, 1576000/div
	fmt.Fprintf(sh.fd[1], "              total        used        free      shared  buff/cache   available\nMem:        %7d     %7d     %7d        2580      320000     %7d\nSwap:             0           0           0\n",
		total, used, free, 1720000/div)
	return 0
}

func cmdCrontab(sh *Shell, args []string, stdin string) int {
	if len(args) == 0 {
		if stdin != "" {
			_ = sh.FS.WriteFile("/var/spool/cron/root", []byte(stdin))
			return 0
		}
		return sh.fail(1, "usage: crontab [-l|-r|file]\n")
	}
	switch args[0] {
	case "-l":
		content, err := sh.FS.ReadFile("/var/spool/cron/root")
		if err != nil {
			return sh.fail(1, "no crontab for root\n")
		}
		sh.fd[1].Write(content)
		return 0
	case "-r":
		_ = sh.FS.Remove("/var/spool/cron/root", false)
		return 0
	default:
		content, err := sh.FS.ReadFile(args[0])
		if err != nil {
			return sh.fail(1, "crontab: %s: No such file or directory\n", args[0])
		}
		_ = sh.FS.WriteFile("/var/spool/cron/root", content)
		return 0
	}
}

func cmdPasswd(sh *Shell, _ []string, _ string) int {
	// Non-interactive honeypot: pretend success and mark shadow touched.
	_ = sh.FS.WriteFile("/etc/shadow", []byte("root:$6$changed$:19000:0:99999:7:::\n"))
	return sh.print("passwd: password updated successfully\n")
}

func cmdChpasswd(sh *Shell, _ []string, stdin string) int {
	if strings.TrimSpace(stdin) == "" {
		return 0
	}
	_ = sh.FS.WriteFile("/etc/shadow", []byte("root:$6$"+vfs.HashBytes([]byte(stdin))[:16]+"$:19000:0:99999:7:::\n"))
	return 0
}

func cmdExport(sh *Shell, args []string, _ string) int {
	for _, a := range args {
		if eq := strings.IndexByte(a, '='); eq > 0 {
			sh.Env[a[:eq]] = a[eq+1:]
		}
	}
	return 0
}

func cmdUnset(sh *Shell, args []string, _ string) int {
	for _, a := range args {
		delete(sh.Env, a)
	}
	return 0
}

func cmdWhich(sh *Shell, args []string, _ string) int {
	exit := 0
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		if _, ok := builtins[a]; ok {
			sh.print("/usr/bin/" + a + "\n")
		} else {
			exit = 1
		}
	}
	return exit
}

func cmdGrep(sh *Shell, args []string, stdin string) int {
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
		sh.print(strconv.Itoa(len(out)) + "\n")
	} else if len(out) > 0 {
		sh.print(strings.Join(out, "\n") + "\n")
	}
	if len(out) == 0 {
		return 1
	}
	return 0
}

// cmdWc counts the lines, words and bytes of each file operand, or of
// stdin: those -l, -w and -c ask for, else all three. Like GNU wc, it
// pads each count to the digits of the files' total size, or to 7 for
// stdin, and prints one count of one input bare.
func cmdWc(sh *Shell, args []string, stdin string) int {
	flags, files := "", []string(nil)
	for _, a := range args {
		if len(a) > 1 && a[0] == '-' {
			flags += a
		} else {
			files = append(files, a)
		}
	}
	type input struct {
		name string
		n    [3]int
		err  error
	}
	ins, width, size, total := []input{{n: wcCount(stdin)}}, 7, 0, [3]int{}
	if len(files) > 0 {
		ins, width = nil, 1
	}
	for _, f := range files {
		content, err := sh.FS.ReadFile(f)
		n := wcCount(content)
		total = [3]int{total[0] + n[0], total[1] + n[1], total[2] + n[2]}
		ins, size = append(ins, input{" " + f, n, err}), size+len(content)
	}
	var pick []int
	for i, c := range "lwc" {
		if !strings.ContainsAny(flags, "lwc") || strings.ContainsRune(flags, c) {
			pick = append(pick, i)
		}
	}
	if width = max(width, len(strconv.Itoa(size))); len(pick) == 1 && len(ins) == 1 {
		width = 1
	}
	if len(ins) > 1 {
		ins = append(ins, input{" total", total, nil})
	}
	exit := 0
	for _, in := range ins {
		if in.err != nil {
			exit = sh.fail(1, "wc: %s: %s\n", in.name[1:], strerror(in.err))
			continue
		}
		line := ""
		for _, i := range pick {
			line += fmt.Sprintf(" %*d", width, in.n[i])
		}
		sh.print(line[1:] + in.name + "\n")
	}
	return exit
}

// wcCount returns the lines, words and bytes of text.
func wcCount[T string | []byte](text T) [3]int {
	lines, words, blank := 0, 0, true
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c == '\n' {
			lines++
		}
		if c == ' ' || c >= '\t' && c <= '\r' {
			blank = true
		} else if blank {
			words, blank = words+1, false
		}
	}
	return [3]int{lines, words, len(text)}
}

func headTail(sh *Shell, args []string, stdin string, head bool) int {
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
			return sh.fail(1, "head: cannot open '%s' for reading: No such file or directory\n", files[0])
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
		return 0
	}
	return sh.print(strings.Join(lines, "\n") + "\n")
}

func cmdSort(sh *Shell, _ []string, stdin string) int {
	lines := strings.Split(strings.TrimRight(stdin, "\n"), "\n")
	sort.Strings(lines)
	if len(lines) == 1 && lines[0] == "" {
		return 0
	}
	return sh.print(strings.Join(lines, "\n") + "\n")
}

func cmdHistory(sh *Shell, args []string, _ string) int {
	if len(args) > 0 && args[0] == "-c" {
		return 0
	}
	for i, c := range sh.commands {
		fmt.Fprintf(sh.fd[1], "%5d  %s\n", i+1, c.Raw)
	}
	return 0
}

func cmdIp(sh *Shell, args []string, _ string) int {
	if len(args) > 0 && (args[0] == "a" || args[0] == "addr") {
		return sh.print("1: lo: <LOOPBACK,UP,LOWER_UP> mtu 65536\n    inet 127.0.0.1/8 scope host lo\n2: eth0: <BROADCAST,MULTICAST,UP,LOWER_UP> mtu 1500\n    inet 192.168.1.105/24 brd 192.168.1.255 scope global eth0\n")
	}
	return 0
}

func cmdSh(sh *Shell, args []string, stdin string) int {
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-c" && i+1 < len(args) {
			return sh.eval(args[i+1], stdin)
		}
		if strings.HasPrefix(a, "-") {
			continue
		}
		// "sh file": execute the file — a file-exec attempt.
		return sh.attemptExec(a)
	}
	return 0
}

// busyboxApplets are the applets our busybox emulation dispatches; the
// Mirai-style probe `/bin/busybox RANDOM` hits the fallback reply.
var busyboxApplets = map[string]bool{
	"cat": true, "echo": true, "wget": true, "tftp": true, "ftpget": true,
	"chmod": true, "rm": true, "cp": true, "mv": true, "mkdir": true,
	"ls": true, "ps": true, "kill": true, "dd": true, "sh": true,
}

func cmdBusybox(sh *Shell, args []string, stdin string) int {
	if len(args) == 0 {
		return sh.print("BusyBox v1.30.1 (Debian 1:1.30.1-6+b3) multi-call binary.\nBusyBox is copyrighted by many authors between 1998-2015.\nUsage: busybox [function [arguments]...]\n")
	}
	applet := args[0]
	if fn, ok := builtins[applet]; ok && busyboxApplets[applet] {
		return fn(sh, args[1:], stdin)
	}
	return sh.fail(127, "%s: applet not found\n", applet)
}

func cmdDd(sh *Shell, args []string, _ string) int {
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
		return 0
	}
	content, err := sh.FS.ReadFile(input)
	if err != nil {
		return sh.fail(1, "dd: failed to open '%s': No such file or directory\n", input)
	}
	if count > 0 && bs*count < len(content) {
		content = content[:bs*count]
	}
	sh.fd[1].Write(content)
	return sh.fail(0, "%d+0 records in\n%d+0 records out\n", count, count) // as dd's statistics go
}

func cmdApt(sh *Shell, args []string, _ string) int {
	if len(args) > 0 && args[0] == "install" {
		sh.print("Reading package lists... Done\nBuilding dependency tree... Done\nE: Unable to locate package " + strings.Join(args[1:], " ") + "\n")
		return 100
	}
	return sh.print("Reading package lists... Done\n")
}

func cmdBase64(sh *Shell, args []string, stdin string) int {
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
			return sh.fail(1, "base64: invalid input\n")
		}
		return sh.print(string(out))
	}
	return sh.print(base64.StdEncoding.EncodeToString([]byte(stdin)) + "\n")
}

func cmdHashFile(sh *Shell, args []string, stdin string) int {
	files := 0
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		files++
		if h, ok := sh.FS.HashOf(a); ok {
			sh.print(h + "  " + a + "\n")
		} else {
			sh.fail(1, "sha256sum: %s: No such file or directory\n", a)
		}
	}
	if files == 0 && stdin != "" {
		sh.print(vfs.HashBytes([]byte(stdin)) + "  -\n")
	}
	return 0
}

func cmdExit(sh *Shell, _ []string, _ string) int {
	sh.exited = true
	return 0
}

func cmdOpenssl(sh *Shell, args []string, stdin string) int {
	if len(args) > 0 && args[0] == "passwd" {
		// openssl passwd -1 SALTPASS style: return a fake MD5-crypt hash.
		seed := strings.Join(args[1:], "")
		if stdin != "" {
			seed += stdin
		}
		return sh.print("$1$" + vfs.HashBytes([]byte(seed))[:8] + "$" + vfs.HashBytes([]byte(seed))[8:30] + "\n")
	}
	return sh.print("OpenSSL 1.1.1n  15 Mar 2022\n")
}

// cmdAwk implements the '{print $N,...}' subset bots use for recon.
func cmdAwk(sh *Shell, args []string, stdin string) int {
	var prog string
	for _, a := range args {
		if strings.Contains(a, "print") {
			prog = a
		}
	}
	if prog == "" {
		return 0
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
		sh.print(strings.Join(parts, " ") + "\n")
	}
	return 0
}

func cmdTr(sh *Shell, args []string, stdin string) int {
	if len(args) >= 2 && len(args[0]) == len(args[1]) {
		for i := 0; i < len(args[0]); i++ {
			stdin = strings.ReplaceAll(stdin, string(args[0][i]), string(args[1][i]))
		}
	}
	return sh.print(stdin)
}

func cmdCut(sh *Shell, args []string, stdin string) int {
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
		return sh.print(stdin)
	}
	for _, line := range strings.Split(strings.TrimRight(stdin, "\n"), "\n") {
		if parts := strings.Split(line, delim); field-1 < len(parts) {
			sh.print(parts[field-1])
		}
		sh.print("\n")
	}
	return 0
}

func cmdXargs(sh *Shell, args []string, stdin string) int {
	if len(args) == 0 {
		return 0
	}
	return sh.exec(append(args[:len(args):len(args)], strings.Fields(stdin)...), "")
}

// cmdPrintf implements the printf subset droppers use: %s/%d pass-through
// and the same escape sequences as echo -e. `printf '\x7f\x45\x4c\x46'`
// is a common ELF-drop vector.
func cmdPrintf(sh *Shell, args []string, _ string) int {
	if len(args) == 0 {
		return 1
	}
	format, rest := decodeEchoEscapes(args[0]), args[1:]
	for {
		i := strings.IndexByte(format, '%')
		if i < 0 || i+1 == len(format) {
			return sh.print(format)
		}
		sh.print(format[:i])
		switch c := format[i+1]; {
		case c == 's' || c == 'd' || c == 'x' || c == 'b':
			if len(rest) > 0 {
				sh.print(rest[0])
				rest = rest[1:]
			}
		case c == '%':
			sh.print("%")
		default:
			sh.print(format[i : i+2])
		}
		format = format[i+2:]
	}
}

// cmdEnv prints the environment, one VAR=value per line, sorted.
func cmdEnv(sh *Shell, _ []string, _ string) int {
	keys := make([]string, 0, len(sh.Env))
	for k := range sh.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sh.print(k + "=" + sh.Env[k] + "\n")
	}
	return 0
}

// cmdLn emulates hard/symbolic links as content copies — enough for the
// persistence tricks bots attempt.
func cmdLn(sh *Shell, args []string, _ string) int {
	var paths []string
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			paths = append(paths, a)
		}
	}
	if len(paths) < 2 {
		return sh.fail(1, "ln: missing file operand\n")
	}
	content, err := sh.FS.ReadFile(paths[0])
	if err != nil {
		return sh.fail(1, "ln: failed to access '%s': No such file or directory\n", paths[0])
	}
	_ = sh.FS.WriteFile(paths[1], content)
	return 0
}

// cmdStat prints minimal stat(1) output.
func cmdStat(sh *Shell, args []string, _ string) int {
	exit := 0
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		n, err := sh.FS.Stat(a)
		if err != nil {
			exit = sh.fail(1, "stat: cannot stat '%s': No such file or directory\n", a)
			continue
		}
		kind := "regular file"
		if n.Dir {
			kind = "directory"
		}
		fmt.Fprintf(sh.fd[1], "  File: %s\n  Size: %d\t%s\nModify: %s\n",
			a, n.Size, kind, n.ModTime.Format("2006-01-02 15:04:05"))
	}
	return exit
}

// cmdFile reports a coarse file type: ELF binaries, scripts, text.
func cmdFile(sh *Shell, args []string, _ string) int {
	exit := 0
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			continue
		}
		kind := "ASCII text"
		switch n, err := sh.FS.Stat(a); {
		case err != nil:
			kind, exit = "cannot open: No such file or directory", 1
		case n.Dir:
			kind = "directory"
		case bytes.HasPrefix(n.Content, []byte("\x7fELF")):
			kind = "ELF 64-bit LSB executable, x86-64"
		case bytes.HasPrefix(n.Content, []byte("#!")):
			kind = "POSIX shell script, ASCII text executable"
		}
		sh.print(a + ": " + kind + "\n")
	}
	return exit
}

// cmdFind lists paths beneath a directory, with the -name glob bots use
// to locate planted files.
func cmdFind(sh *Shell, args []string, _ string) int {
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
		return sh.fail(1, "find: '%s': No such file or directory\n", root)
	} else if !n.Dir {
		return sh.print(sh.FS.Abs(root) + "\n")
	}
	abs := sh.FS.Abs(root)
	if pattern == "" {
		out = append(out, abs)
	}
	walk(abs)
	if len(out) == 0 {
		return 0
	}
	return sh.print(strings.Join(out, "\n") + "\n")
}

// cmdNohup runs its arguments as a command, discarding the "ignoring
// input" notice real nohup prints.
func cmdNohup(sh *Shell, args []string, stdin string) int {
	if len(args) == 0 {
		return sh.fail(125, "nohup: missing operand\n")
	}
	return sh.exec(args, stdin)
}
