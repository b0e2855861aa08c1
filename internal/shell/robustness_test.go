package shell

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"honeynet/internal/vfs"
)

// TestShellNeverPanicsOnArbitraryInput feeds fuzz-like input through the
// full interpreter: the honeypot must survive anything an attacker types.
func TestShellNeverPanicsOnArbitraryInput(t *testing.T) {
	f := func(line string) bool {
		sh := newTestShell()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on input %q: %v", line, r)
			}
		}()
		sh.Run(line)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestShellSurvivesHostileCorpus runs a corpus of deliberately nasty
// inputs observed in honeypot traffic or constructed to stress parsing.
func TestShellSurvivesHostileCorpus(t *testing.T) {
	corpus := []string{
		"",
		" ",
		";;;;;;;",
		"&&&&",
		"||||",
		"|||",
		"| | |",
		`"`,
		`'`,
		"`",
		"$(",
		"$()",
		"$($($($(uname))))",
		"``````",
		"\\",
		"\\\\\\",
		">>",
		"> > >",
		"2>&1 2>&1 2>&1",
		"echo " + strings.Repeat("a", 10000),
		strings.Repeat("cd /tmp;", 500),
		strings.Repeat("$(", 50) + strings.Repeat(")", 50),
		"echo $" + strings.Repeat("{", 100),
		"rm -rf /",
		"rm -rf /*",
		"cat /dev/urandom",
		"cd ..; cd ..; cd ..; cd ..; pwd",
		"echo \x00\x01\x02\xff",
		"wget",
		"curl",
		"tftp",
		"chmod",
		"sh -c",
		"sh -c ''",
		"busybox",
		"echo -e '\\x'",
		"echo -e '\\",
		"export =x",
		"A=1 B=2 C=3",
		"ls " + strings.Repeat("../", 200),
		"mkdir " + strings.Repeat("d/", 100),
		"head -n -5 /etc/passwd",
		"tail -99999999999999999999 /etc/passwd",
		"grep -c '' /etc/passwd",
		"awk '{print $99}'",
		"cut -d -f",
		"xargs xargs xargs",
		"history; history; history",
	}
	for _, line := range corpus {
		sh := newTestShell()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corpus input %q: %v", line, r)
				}
			}()
			sh.Run(line)
		}()
	}
}

// TestRunAlwaysRecordsCommand: every non-empty input line lands in the
// session command log exactly once, no matter how malformed.
func TestRunAlwaysRecordsCommand(t *testing.T) {
	f := func(line string) bool {
		trimmed := strings.TrimSpace(line)
		sh := newTestShell()
		sh.Run(line)
		if trimmed == "" {
			return len(sh.Commands()) == 0
		}
		return len(sh.Commands()) == 1 && sh.Commands()[0].Raw == trimmed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRootDirectoryIndestructible: whatever the attacker does, the
// filesystem root survives and the shell stays usable.
func TestRootDirectoryIndestructible(t *testing.T) {
	sh := newTestShell()
	sh.Run("rm -rf /")
	sh.Run("rm -rf /*")
	sh.Run("cd /")
	if out := sh.Run("pwd"); out != "/\n" {
		t.Errorf("pwd after rm -rf / = %q", out)
	}
}

// TestSegmentsAndWordsNeverPanic covers the parser directly.
func TestSegmentsAndWordsNeverPanic(t *testing.T) {
	f := func(text string) bool {
		parse(text)
		decodeEchoEscapes(text)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSplitSegmentsNoEmptySegments: the parser never emits an empty
// simple command.
func TestSplitSegmentsNoEmptySegments(t *testing.T) {
	f := func(text string) bool { return checkParse(parse(text)) == "" }
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDoublingFileStopsAtBudget: a session that doubles a file with
// cat a a > b; mv b a holds at most vfs.Budget. The write that would
// pass it fails with bash's ENOSPC message, the file stops growing, and
// the live heap after the session stays under the budget, and a refused
// round allocates its output once. Unbounded, these 22 rounds leave a
// 128 MiB file.
func TestDoublingFileStopsAtBudget(t *testing.T) {
	sh := newTestShell()
	sh.Run("echo 0123456789abcdef0123456789abcde > /tmp/a") // 32 bytes
	var out string
	for i := 0; i < 22; i++ {
		out = sh.Run("cat /tmp/a /tmp/a > /tmp/b; mv /tmp/b /tmp/a")
	}
	n, err := sh.FS.Stat("/tmp/a")
	if err != nil {
		t.Fatal(err)
	}
	if n.Size > vfs.Budget || n.Size < vfs.Budget/4 {
		t.Errorf("/tmp/a holds %d bytes; want it stopped at most %d bytes, the budget", n.Size, vfs.Budget)
	}
	if want := "cat: write error: No space left on device\n"; !strings.HasPrefix(out, want) {
		t.Errorf("the last round printed %q, want it to start %q", out, want)
	}
	// A refused round allocates cat's output once, and nothing else of
	// its size.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sh.Run("cat /tmp/a /tmp/a > /tmp/b; mv /tmp/b /tmp/a")
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*n.Size)+1<<20; got > limit {
		t.Errorf("a refused round allocated %d KiB, want at most %d KiB (its %d KiB output once)",
			got>>10, limit>>10, 2*n.Size>>10)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > vfs.Budget {
		t.Errorf("live heap %d bytes after the session, over the %d-byte budget", ms.HeapAlloc, vfs.Budget)
	}
	runtime.KeepAlive(sh)
}

// TestLineOutputBounded: one line that prints an 8 MiB file 16 times
// returns at most outputCap bytes, and the live heap after it holds the
// file and the output, not 128 MiB. A variable doubled past the cap
// stops at it.
func TestLineOutputBounded(t *testing.T) {
	sh := newTestShell()
	sh.Run("echo 0123456789abcdef0123456789abcde > /tmp/a") // 32 bytes
	for i := 0; i < 18; i++ {
		sh.Run("cat /tmp/a /tmp/a > /tmp/b; mv /tmp/b /tmp/a")
	}
	n, err := sh.FS.Stat("/tmp/a")
	if err != nil || n.Size != 8<<20 {
		t.Fatalf("/tmp/a: %v, %v; want 8 MiB", n, err)
	}
	out := sh.Run(strings.Repeat("cat /tmp/a; ", 16))
	if len(out) > outputCap {
		t.Errorf("the line returned %d bytes, want at most %d", len(out), outputCap)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if limit := uint64(n.Size) + outputCap + 8<<20; ms.HeapAlloc > limit {
		t.Errorf("live heap %d MiB after the line, want at most %d MiB", ms.HeapAlloc>>20, limit>>20)
	}
	runtime.KeepAlive(out)
	runtime.KeepAlive(sh)

	sh.Run("X=0123456789abcdef" + strings.Repeat("; X=$X$X", 17)) // 2 MiB unbounded
	if got := len(sh.Env["X"]); got > outputCap {
		t.Errorf("$X holds %d bytes, want at most %d", got, outputCap)
	}
}
