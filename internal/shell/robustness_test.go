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

// TestSegmentsAndWordsNeverPanic covers the tokenizers directly.
func TestSegmentsAndWordsNeverPanic(t *testing.T) {
	f := func(text string) bool {
		segs := splitSegments(text)
		for _, s := range segs {
			splitWords(s.text)
		}
		splitWords(text)
		decodeEchoEscapes(text)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSplitSegmentsNoEmptySegments: the segment splitter never emits
// empty command texts.
func TestSplitSegmentsNoEmptySegments(t *testing.T) {
	f := func(text string) bool {
		for _, s := range splitSegments(text) {
			if strings.TrimSpace(s.text) == "" {
				return false
			}
		}
		return true
	}
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
