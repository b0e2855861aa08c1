// Package vfs provides the copy-on-write virtual filesystem behind the
// emulated honeypot shell. It tracks file creations, modifications, and
// deletions, and records a SHA-256 hash for every file content written —
// mirroring how the honeynet in the paper records hashes of dropped
// malware rather than the files themselves.
//
// Copy-on-write means path copying: every FS starts as a pointer to one
// seeded tree, built and hashed once per process and never written. A
// mutator copies the nodes from the root down to the one it changes,
// unless the FS owns them already; every other node stays shared.
package vfs

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"path"
	"sort"
	"strings"
	"sync"
	"time"
)

// Common errors, matching Unix errno semantics the shell surfaces.
var (
	ErrNotExist   = errors.New("no such file or directory")
	ErrIsDir      = errors.New("is a directory")
	ErrNotDir     = errors.New("not a directory")
	ErrExist      = errors.New("file exists")
	ErrPermission = errors.New("permission denied")
	ErrNoSpace    = errors.New("no space left on device")
)

// devNull reads as empty and discards what is written to it.
const devNull = "/dev/null"

// Budget bounds the bytes held by the files an FS's own writes made: a
// write that would take them past it fails with ErrNoSpace. The shared
// base image is not charged. Without it a session that doubles a file
// (cat a a > b; mv b a) holds 256 MiB after 45 commands.
const Budget = 64 << 20

// Node is a file or directory in the virtual filesystem. Nodes returned
// by Stat and List, and the bytes returned by ReadFile, may be shared
// with every other FS: they are read-only.
type Node struct {
	Name     string
	Dir      bool
	Mode     uint32
	Size     int64
	ModTime  time.Time
	Content  []byte
	Children map[string]*Node

	// Hash is the hex SHA-256 of Content for regular files with content.
	Hash string

	// owner is the FS that may change this node in place; any other FS
	// copies it first.
	owner *FS
	// held marks content an FS wrote, which counts against its Budget.
	held bool
}

// heldBytes sums what n and the nodes below it count against Budget.
func heldBytes(n *Node) int64 {
	switch {
	case n == nil:
		return 0
	case !n.Dir:
		if n.held {
			return n.Size
		}
		return 0
	}
	var sum int64
	for _, c := range n.Children {
		sum += heldBytes(c)
	}
	return sum
}

// copyFor returns a copy of n owned by fs. A directory's copy gets its
// own child map; the children themselves stay shared.
func (n *Node) copyFor(fs *FS) *Node {
	c := *n
	c.owner = fs
	if n.Dir {
		c.Children = maps.Clone(n.Children)
	}
	return &c
}

// ChangeKind labels a mutation to the filesystem.
type ChangeKind int

// Change kinds.
const (
	ChangeCreate ChangeKind = iota
	ChangeModify
	ChangeDelete
	ChangeChmod
)

// String names the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeCreate:
		return "create"
	case ChangeModify:
		return "modify"
	case ChangeDelete:
		return "delete"
	case ChangeChmod:
		return "chmod"
	default:
		return "unknown"
	}
}

// Change records one mutation: the honeypot uses the change log to decide
// whether a session altered system state and to collect dropped-file
// hashes.
type Change struct {
	Kind ChangeKind
	Path string
	// Hash is set for create/modify of regular files.
	Hash string
	Size int64
}

// FS is a virtual filesystem rooted at "/". It is not safe for concurrent
// use; each honeypot session gets its own FS instance.
type FS struct {
	root    *Node
	cwd     string
	changes []Change
	used    int64 // bytes its own writes hold, against Budget
}

// base is the seeded tree every FS starts from. Its nodes are owned by
// the FS that built them, which nothing else holds, so every FS copies a
// node before changing it and the base is never written after the build.
var base = sync.OnceValue(func() *Node { return seeded().root })

// New returns a filesystem pre-populated with the honeypot's fake Debian
// layout (the same directories Cowrie fakes). It shares the base tree
// until its first write.
func New() *FS { return &FS{root: base(), cwd: "/root"} }

// seeded builds the fake Debian layout into an FS that owns every node.
func seeded() *FS {
	fs := &FS{
		root: &Node{Name: "/", Dir: true, Mode: 0o755, Children: map[string]*Node{}},
		cwd:  "/root",
	}
	fs.root.owner = fs
	when := time.Date(2021, 11, 14, 3, 21, 0, 0, time.UTC)
	for _, d := range []string{
		"/bin", "/boot", "/dev", "/etc", "/etc/init.d", "/home", "/lib",
		"/mnt", "/opt", "/proc", "/root", "/run", "/sbin", "/srv", "/sys",
		"/tmp", "/usr", "/usr/bin", "/usr/sbin", "/var", "/var/log", "/var/run",
		"/var/tmp", "/var/spool", "/var/spool/cron",
	} {
		fs.mkdirAllInternal(d, when)
	}
	seed := map[string]string{
		"/dev/null":        "",
		"/etc/hostname":    "svr04\n",
		"/etc/passwd":      "root:x:0:0:root:/root:/bin/bash\ndaemon:x:1:1:daemon:/usr/sbin:/usr/sbin/nologin\nbin:x:2:2:bin:/bin:/usr/sbin/nologin\nsshd:x:104:65534::/run/sshd:/usr/sbin/nologin\n",
		"/etc/shadow":      "root:$6$mZ1t0Yy1$Y:18000:0:99999:7:::\n",
		"/etc/hosts":       "127.0.0.1\tlocalhost\n127.0.1.1\tsvr04\n",
		"/etc/hosts.deny":  "",
		"/etc/issue":       "Debian GNU/Linux 11 \\n \\l\n",
		"/etc/resolv.conf": "nameserver 8.8.8.8\n",
		"/etc/crontab":     "# /etc/crontab: system-wide crontab\nSHELL=/bin/sh\nPATH=/usr/local/sbin:/usr/local/bin:/sbin:/bin:/usr/sbin:/usr/bin\n",
		"/proc/cpuinfo": "processor\t: 0\nvendor_id\t: GenuineIntel\ncpu family\t: 6\nmodel\t\t: 79\nmodel name\t: Intel(R) Xeon(R) CPU E5-2686 v4 @ 2.30GHz\ncpu MHz\t\t: 2299.914\ncache size\t: 46080 KB\n" +
			"processor\t: 1\nvendor_id\t: GenuineIntel\ncpu family\t: 6\nmodel\t\t: 79\nmodel name\t: Intel(R) Xeon(R) CPU E5-2686 v4 @ 2.30GHz\ncpu MHz\t\t: 2299.914\ncache size\t: 46080 KB\n",
		"/proc/meminfo":        "MemTotal:        2048000 kB\nMemFree:         1576000 kB\nMemAvailable:    1720000 kB\nBuffers:           64000 kB\nCached:           256000 kB\n",
		"/proc/version":        "Linux version 5.10.0-8-amd64 (debian-kernel@lists.debian.org) (gcc-10 (Debian 10.2.1-6) 10.2.1 20210110) #1 SMP Debian 5.10.46-4 (2021-08-03)\n",
		"/proc/uptime":         "1024806.31 2044972.04\n",
		"/proc/mounts":         "/dev/sda1 / ext4 rw,relatime,errors=remount-ro 0 0\nproc /proc proc rw,nosuid,nodev,noexec,relatime 0 0\n",
		"/proc/self/exe":       "\x7fELF\x02\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00",
		"/root/.bash_history":  "",
		"/var/run/sshd.pid":    "612\n",
		"/bin/busybox":         "\x7fELF\x02\x01\x01\x00busybox-stub",
		"/bin/bash":            "\x7fELF\x02\x01\x01\x00bash-stub",
		"/bin/sh":              "\x7fELF\x02\x01\x01\x00sh-stub",
		"/usr/bin/wget":        "\x7fELF\x02\x01\x01\x00wget-stub",
		"/usr/bin/curl":        "\x7fELF\x02\x01\x01\x00curl-stub",
		"/usr/bin/perl":        "\x7fELF\x02\x01\x01\x00perl-stub",
		"/usr/bin/python3":     "\x7fELF\x02\x01\x01\x00python3-stub",
		"/etc/init.d/ssh":      "#!/bin/sh\n# ssh init script\n",
		"/root/.ssh/.keep":     "",
		"/etc/ssh/sshd_config": "PermitRootLogin yes\nPasswordAuthentication yes\n",
	}
	// Ensure parent dirs for seeded files exist.
	for p := range seed {
		fs.mkdirAllInternal(path.Dir(p), when)
	}
	keys := make([]string, 0, len(seed))
	for p := range seed {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	for _, p := range keys {
		fs.writeInternal(p, []byte(seed[p]), when)
	}
	fs.changes = nil // seeding is not attacker activity
	return fs
}

// hashBytes returns the hex SHA-256 of b.
func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Cwd returns the current working directory.
func (fs *FS) Cwd() string { return fs.cwd }

// Chdir changes the working directory.
func (fs *FS) Chdir(p string) error {
	abs := fs.Abs(p)
	n := fs.lookup(abs)
	if n == nil {
		return fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	if !n.Dir {
		return fmt.Errorf("%s: %w", p, ErrNotDir)
	}
	fs.cwd = abs
	return nil
}

// Abs resolves p against the working directory and cleans it.
func (fs *FS) Abs(p string) string {
	if p == "" {
		return fs.cwd
	}
	if strings.HasPrefix(p, "~") {
		p = "/root" + p[1:]
	}
	if !strings.HasPrefix(p, "/") {
		p = path.Join(fs.cwd, p)
	}
	return path.Clean(p)
}

// lookup returns the node at absolute path p, or nil.
func (fs *FS) lookup(p string) *Node {
	if p == "/" {
		return fs.root
	}
	parts := strings.Split(strings.Trim(p, "/"), "/")
	n := fs.root
	for _, part := range parts {
		if !n.Dir {
			return nil
		}
		c, ok := n.Children[part]
		if !ok {
			return nil
		}
		n = c
	}
	return n
}

// Stat returns the node at p (relative paths resolved against cwd).
func (fs *FS) Stat(p string) (*Node, error) {
	n := fs.lookup(fs.Abs(p))
	if n == nil {
		return nil, fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	return n, nil
}

// Exists reports whether p exists.
func (fs *FS) Exists(p string) bool {
	return fs.lookup(fs.Abs(p)) != nil
}

// ReadFile returns the content of the file at p.
func (fs *FS) ReadFile(p string) ([]byte, error) {
	n := fs.lookup(fs.Abs(p))
	if n == nil {
		return nil, fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	if n.Dir {
		return nil, fmt.Errorf("%s: %w", p, ErrIsDir)
	}
	return n.Content, nil
}

// List returns the children of the directory at p, sorted by name.
func (fs *FS) List(p string) ([]*Node, error) {
	n := fs.lookup(fs.Abs(p))
	if n == nil {
		return nil, fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	if !n.Dir {
		return []*Node{n}, nil
	}
	names := make([]string, 0, len(n.Children))
	for name := range n.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Node, len(names))
	for i, name := range names {
		out[i] = n.Children[name]
	}
	return out, nil
}

// Mkdir creates a single directory.
func (fs *FS) Mkdir(p string) error {
	abs := fs.Abs(p)
	if fs.lookup(abs) != nil {
		return fmt.Errorf("%s: %w", p, ErrExist)
	}
	parent := fs.lookup(path.Dir(abs))
	if parent == nil {
		return fmt.Errorf("%s: %w", path.Dir(p), ErrNotExist)
	}
	if !parent.Dir {
		return fmt.Errorf("%s: %w", path.Dir(p), ErrNotDir)
	}
	fs.own(path.Dir(abs)).Children[path.Base(abs)] = &Node{
		Name: path.Base(abs), Dir: true, Mode: 0o755,
		ModTime: time.Now(), Children: map[string]*Node{}, owner: fs,
	}
	fs.changes = append(fs.changes, Change{Kind: ChangeCreate, Path: abs})
	return nil
}

// MkdirAll creates p and any missing parents.
func (fs *FS) MkdirAll(p string) error {
	abs := fs.Abs(p)
	if n := fs.lookup(abs); n != nil {
		if n.Dir {
			return nil
		}
		return fmt.Errorf("%s: %w", p, ErrNotDir)
	}
	if !fs.mkdirAllInternal(abs, time.Now()) {
		return fmt.Errorf("%s: %w", p, ErrNotDir)
	}
	fs.changes = append(fs.changes, Change{Kind: ChangeCreate, Path: abs})
	return nil
}

// mkdirAllInternal creates the missing directories of p, stamped when.
// It reports false, creating nothing, if a file is on the way to p.
func (fs *FS) mkdirAllInternal(p string, when time.Time) bool {
	if p == "/" {
		return true
	}
	if !fs.mkdirAllInternal(path.Dir(p), when) || !fs.lookup(path.Dir(p)).Dir {
		return false
	}
	if parent := fs.own(path.Dir(p)); parent.Children[path.Base(p)] == nil {
		parent.Children[path.Base(p)] = &Node{Name: path.Base(p), Dir: true, Mode: 0o755, ModTime: when, Children: map[string]*Node{}, owner: fs}
	}
	return true
}

// own returns the node at absolute path p, first copying every node from
// the root down to it that fs does not own yet; nil if p is missing.
func (fs *FS) own(p string) *Node {
	if fs.root.owner != fs {
		fs.root = fs.root.copyFor(fs)
	}
	n := fs.root
	if p == "/" {
		return n
	}
	for _, part := range strings.Split(strings.Trim(p, "/"), "/") {
		c := n.Children[part]
		if c == nil {
			return nil
		}
		if c.owner != fs {
			c = c.copyFor(fs)
			n.Children[part] = c
		}
		n = c
	}
	return n
}

// CanWrite returns the error WriteFile would return for size bytes of
// content at p, without writing: ErrNotExist or ErrNotDir for a missing
// or non-directory parent, ErrIsDir for a directory, and ErrNoSpace if
// the content would take what fs's writes hold past Budget. A caller
// asks it before it copies a large write.
func (fs *FS) CanWrite(p string, size int64) error {
	_, err := fs.canWrite(p, fs.Abs(p), size)
	return err
}

// canWrite is CanWrite for p's absolute path abs; it also returns the
// node a write would replace, if any.
func (fs *FS) canWrite(p, abs string, size int64) (*Node, error) {
	parent := fs.lookup(path.Dir(abs))
	if parent == nil {
		return nil, fmt.Errorf("%s: %w", path.Dir(p), ErrNotExist)
	}
	if !parent.Dir {
		return nil, fmt.Errorf("%s: %w", path.Dir(p), ErrNotDir)
	}
	old := fs.lookup(abs)
	if old != nil && old.Dir {
		return nil, fmt.Errorf("%s: %w", p, ErrIsDir)
	}
	if fs.used+size-heldBytes(old) > Budget {
		return nil, fmt.Errorf("%s: %w", p, ErrNoSpace)
	}
	return old, nil
}

// WriteFile creates or replaces the file at p with content, recording the
// change and the content hash. It fails as CanWrite says it would. The
// file keeps content, which the caller must not change afterwards.
// devNull is a device: what is written to it is discarded, unrecorded.
func (fs *FS) WriteFile(p string, content []byte) error {
	abs := fs.Abs(p)
	old, err := fs.canWrite(p, abs, int64(len(content)))
	if err != nil || abs == devNull {
		return err
	}
	kind := ChangeModify
	if old == nil {
		kind = ChangeCreate
	}
	grow := int64(len(content)) - heldBytes(old)
	n, err := fs.writeInternal(abs, content, time.Now())
	if err != nil {
		return err
	}
	n.held = true
	fs.used += grow
	fs.changes = append(fs.changes, Change{Kind: kind, Path: abs, Hash: n.Hash, Size: n.Size})
	return nil
}

// AppendFile appends content to the file at p, creating it if needed. A
// write that would not fit fails before the two are joined.
func (fs *FS) AppendFile(p string, content []byte) error {
	abs := fs.Abs(p)
	existing, err := fs.ReadFile(abs)
	if err != nil && !errors.Is(err, ErrNotExist) {
		return err
	}
	if err := fs.CanWrite(p, int64(len(existing)+len(content))); err != nil {
		return err
	}
	return fs.WriteFile(abs, append(append([]byte{}, existing...), content...))
}

func (fs *FS) writeInternal(p string, content []byte, when time.Time) (*Node, error) {
	if parent := fs.lookup(path.Dir(p)); parent == nil || !parent.Dir {
		return nil, fmt.Errorf("%s: %w", path.Dir(p), ErrNotExist)
	}
	n := fs.own(p)
	if n == nil {
		n = &Node{Name: path.Base(p), Mode: 0o644, owner: fs}
		fs.own(path.Dir(p)).Children[n.Name] = n
	}
	if n.Dir {
		return nil, fmt.Errorf("%s: %w", p, ErrIsDir)
	}
	n.Content = content
	n.Size = int64(len(content))
	n.ModTime = when
	n.Hash = hashBytes(content)
	return n, nil
}

// Remove deletes the node at p. Directories are removed recursively when
// recursive is true, otherwise only if empty.
func (fs *FS) Remove(p string, recursive bool) error {
	abs := fs.Abs(p)
	if abs == "/" {
		return fmt.Errorf("/: %w", ErrPermission)
	}
	n := fs.lookup(abs)
	if n == nil {
		return fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	if n.Dir && !recursive && len(n.Children) > 0 {
		return fmt.Errorf("%s: directory not empty", p)
	}
	fs.used -= heldBytes(n)
	delete(fs.own(path.Dir(abs)).Children, path.Base(abs))
	fs.changes = append(fs.changes, Change{Kind: ChangeDelete, Path: abs})
	return nil
}

// Chmod updates the mode bits of the node at p.
func (fs *FS) Chmod(p string, mode uint32) error {
	abs := fs.Abs(p)
	if fs.lookup(abs) == nil {
		return fmt.Errorf("%s: %w", p, ErrNotExist)
	}
	fs.own(abs).Mode = mode
	fs.changes = append(fs.changes, Change{Kind: ChangeChmod, Path: abs})
	return nil
}

// Rename moves the node at old to new. Moving a directory into itself
// or below itself (and so moving "/") fails with ErrPermission.
func (fs *FS) Rename(oldp, newp string) error {
	absOld := fs.Abs(oldp)
	absNew := fs.Abs(newp)
	if fs.lookup(absOld) == nil {
		return fmt.Errorf("%s: %w", oldp, ErrNotExist)
	}
	if newParent := fs.lookup(path.Dir(absNew)); newParent == nil || !newParent.Dir {
		return fmt.Errorf("%s: %w", path.Dir(newp), ErrNotExist)
	}
	// Moving onto an existing directory places the node inside it.
	if dst := fs.lookup(absNew); dst != nil && dst.Dir {
		absNew = path.Join(absNew, path.Base(absOld))
	}
	if strings.HasPrefix(absNew, strings.TrimSuffix(absOld, "/")+"/") {
		return fmt.Errorf("%s: %w", newp, ErrPermission)
	}
	if absNew != absOld {
		fs.used -= heldBytes(fs.lookup(absNew)) // replaced
	}
	n := fs.own(absOld)
	delete(fs.own(path.Dir(absOld)).Children, path.Base(absOld))
	n.Name = path.Base(absNew)
	fs.own(path.Dir(absNew)).Children[n.Name] = n
	fs.changes = append(fs.changes,
		Change{Kind: ChangeDelete, Path: absOld},
		Change{Kind: ChangeCreate, Path: absNew, Hash: n.Hash, Size: n.Size})
	return nil
}

// Changes returns the attacker-visible mutation log.
func (fs *FS) Changes() []Change { return fs.changes }

// Changed reports whether any mutation occurred.
func (fs *FS) Changed() bool { return len(fs.changes) > 0 }

// DroppedHashes returns the distinct content hashes of files created or
// modified, in first-seen order — what the honeynet database stores per
// session.
func (fs *FS) DroppedHashes() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range fs.changes {
		if (c.Kind == ChangeCreate || c.Kind == ChangeModify) && c.Hash != "" && !seen[c.Hash] {
			seen[c.Hash] = true
			out = append(out, c.Hash)
		}
	}
	return out
}

// HashOf returns the content hash of the file at p, if it exists.
func (fs *FS) HashOf(p string) (string, bool) {
	n := fs.lookup(fs.Abs(p))
	if n == nil || n.Dir {
		return "", false
	}
	return n.Hash, true
}

// HashBytes returns the hex SHA-256 of b — the same hash the filesystem
// records for file contents.
func HashBytes(b []byte) string { return hashBytes(b) }

// ChangeCount returns the length of the change log; use it as a
// checkpoint for ChangesSince when a filesystem persists across
// sessions.
func (fs *FS) ChangeCount() int { return len(fs.changes) }

// ChangesSince returns the mutations recorded after the checkpoint n.
func (fs *FS) ChangesSince(n int) []Change {
	if n < 0 || n > len(fs.changes) {
		return nil
	}
	return fs.changes[n:]
}
