package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"honeynet/internal/obs"
	"honeynet/internal/session"
)

// copyFiles copies dir's regular files into a fresh directory: the
// on-disk image a kill -9 at this instant would leave.
func copyFiles(t *testing.T, dir string) string {
	t.Helper()
	img := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Error(err)
		return img
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(img, e.Name()), data, 0o644)
		}
		if err != nil {
			t.Error(err)
		}
	}
	return img
}

// killImage is one crash image and the protocol boundary it was taken at.
type killImage struct{ point, dir string }

// imager is a step hook that images the store's directory at every
// boundary of the seal protocol; dropped reports each "seal:dropped".
type imager struct {
	mu      sync.Mutex
	images  []killImage
	dropped chan struct{}
}

func imageEvery(t *testing.T, s *Store) *imager {
	m := &imager{dropped: make(chan struct{}, 8)}
	s.step = func(point string) {
		img := killImage{point, copyFiles(t, s.dir)}
		m.mu.Lock()
		m.images = append(m.images, img)
		m.mu.Unlock()
		if point == "seal:dropped" {
			m.dropped <- struct{}{}
		}
	}
	return m
}

// all returns the images taken so far.
func (m *imager) all() []killImage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.images[:len(m.images):len(m.images)]
}

// obstructSeal makes the next seal's first segment file uncreatable — a
// non-empty directory sits at its name, which the failed seal's cleanup
// cannot remove — and returns the path to clear.
func obstructSeal(t *testing.T, s *Store) string {
	t.Helper()
	man, _ := s.snapshot()
	block := filepath.Join(s.dir, segFileName(man.NextSeg))
	if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	return block
}

// appendUntilRefused appends deterministic records until the store
// refuses one, returning those it accepted.
func appendUntilRefused(t *testing.T, s *Store) []*session.Record {
	t.Helper()
	var want []*session.Record
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		r := mkRecord(len(want)%3, len(want))
		if err := s.Append(r); err != nil {
			if !strings.Contains(err.Error(), "seal failed") {
				t.Fatalf("append refused for the wrong reason: %v", err)
			}
			return want
		}
		want = append(want, r)
	}
	t.Fatal("the obstructed seal never refused an append")
	return nil
}

// checkHistory asserts the store holds exactly want: the same records
// in Stream order, and dense sequences from zero with the same lines.
func checkHistory(t *testing.T, label string, s *Store, want []*session.Record) {
	t.Helper()
	got := drainStream(t, s.Stream())
	if len(got) != len(want) {
		t.Fatalf("%s: streamed %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if w, g := marshal(t, want[i]), marshal(t, got[i]); !bytes.Equal(w, g) {
			t.Fatalf("%s: record %d differs:\n want %s\n  got %s", label, i, w, g)
		}
	}
	if n := s.NextSeq(); n != uint64(len(want)) {
		t.Fatalf("%s: NextSeq %d, want %d", label, n, len(want))
	}
	c := s.ScanSeq(0)
	defer c.Close()
	for i := range want {
		if !c.Next() {
			t.Fatalf("%s: sequence scan ended at %d of %d: %v", label, i, len(want), c.Err())
		}
		if c.Seq() != uint64(i) || !bytes.Equal(c.Line(), marshal(t, want[i])) {
			t.Fatalf("%s: seq %d carries %s, want seq %d", label, c.Seq(), c.Line(), i)
		}
	}
	if c.Next() {
		t.Fatalf("%s: sequence scan ran past %d records", label, len(want))
	}
}

// checkImage re-opens a crash image read-only and then read-write and
// holds both to the store's contracts: exactly want, a stale WAL
// counted exactly when the image was taken between the manifest commit
// and the frozen file's removal, no segment file the manifest does not
// reference after the read-write open, and a store that takes an
// append and closes clean afterwards.
func checkImage(t *testing.T, label string, img killImage, want []*session.Record) {
	t.Helper()
	label += " @ " + img.point
	var drops int64
	if img.point == "seal:committed" || img.point == "seal:swapped" {
		drops = 1
	}
	for _, ro := range []bool{true, false} {
		s, err := Open(img.dir, Options{ReadOnly: ro, SealBytes: -1, SyncEvery: -1})
		if ro && img.point == "compact:built" {
			// The migration has not committed: the manifest still lists
			// the legacy segments, which only a read-write open reads.
			if !errors.Is(err, ErrLegacySegment) {
				t.Fatalf("%s (read-only): open: %v, want ErrLegacySegment", label, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s (read-only %v): open: %v", label, ro, err)
		}
		if got := s.staleWALDrops.Load(); got != drops {
			t.Fatalf("%s (read-only %v): %d stale WAL drops, want %d", label, ro, got, drops)
		}
		checkHistory(t, fmt.Sprintf("%s (read-only %v)", label, ro), s, want)
		if !ro {
			checkNoOrphans(t, label, s)
			if err := s.Append(mkRecord(0, 999_999)); err != nil {
				t.Fatalf("%s: append after recovery: %v", label, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s (read-only %v): close: %v", label, ro, err)
		}
	}
	if Sealing(img.dir) {
		t.Fatalf("%s: frozen WAL left after recovery and close", label)
	}
	s, err := Open(img.dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Len(); got != len(want)+1 {
		t.Fatalf("%s: %d records after recovery + one append, want %d", label, got, len(want)+1)
	}
}

// pointsSeen lists the boundaries a run imaged, for the coverage check.
func pointsSeen(images []killImage) string {
	var b strings.Builder
	for _, img := range images {
		b.WriteString(img.point + " ")
	}
	return b.String()
}

const onePass = "rotate:synced rotate:renamed rotate:created rotate:bound rotate:done " +
	"seal:built seal:committed seal:swapped seal:dropped "

// TestSealKillPoints kills the store at every boundary of the one seal
// protocol — the rotation and finishSeal — for each way it is reached:
// the size trigger's worker, Close on its caller, and the retry after a
// failed build; and at every boundary of a migration, the seal's
// commit over a month's legacy segments. Every image must recover,
// read-write and read-only, to exactly the history the uninterrupted
// run holds (read-only refuses an image the migration has not
// committed).
func TestSealKillPoints(t *testing.T) {
	t.Run("size trigger", func(t *testing.T) {
		s, err := Open(t.TempDir(), Options{SealBytes: 8 << 10, SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		m := imageEvery(t, s)
		var want []*session.Record
		for len(m.all()) == 0 { // the triggering Append rotates before it returns
			r := mkRecord(len(want)%3, len(want))
			if err := s.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		<-m.dropped
		if got := pointsSeen(m.all()); got != onePass {
			t.Fatalf("boundaries imaged: %s\nwant: %s", got, onePass)
		}
		if s.sealBackground.Load() != 1 {
			t.Fatalf("%d background seals, want 1", s.sealBackground.Load())
		}
		s.step = nil
		checkHistory(t, "uninterrupted", s, want)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for _, img := range m.all() {
			checkImage(t, "size trigger", img, want)
		}
	})

	t.Run("close", func(t *testing.T) {
		s, err := Open(t.TempDir(), Options{SealBytes: -1, SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		want := fill(t, s, 200, 3)
		m := imageEvery(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := pointsSeen(m.all()); got != onePass {
			t.Fatalf("boundaries imaged: %s\nwant: %s", got, onePass)
		}
		if s.sealBackground.Load() != 0 {
			t.Fatal("Close's seal was counted as a background seal")
		}
		for _, img := range m.all() {
			checkImage(t, "close", img, want)
		}
	})

	t.Run("retry", func(t *testing.T) {
		s, err := Open(t.TempDir(), Options{SealBytes: 8 << 10, SyncEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		block := obstructSeal(t, s)
		want := appendUntilRefused(t, s)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(block); err != nil {
			t.Fatal(err)
		}
		// The failed state itself: a live frozen WAL under an active one.
		checkImage(t, "retry", killImage{"failed", copyFiles(t, s.dir)}, want)

		m := imageEvery(t, s)
		if err := s.Seal(); err != nil { // no sync loop: Seal is the retry
			t.Fatal(err)
		}
		if got := pointsSeen(m.all()); !strings.HasPrefix(got, "seal:built seal:committed seal:swapped seal:dropped ") {
			t.Fatalf("the retry did not re-enter finishSeal over the frozen prefix: %s", got)
		}
		s.step = nil
		checkHistory(t, "uninterrupted", s, want)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for _, img := range m.all() {
			checkImage(t, "retry", img, want)
		}
	})

	t.Run("compact", func(t *testing.T) {
		// The migration runs inside Open, before a hook can be set: open
		// and close an empty store, put the legacy fixture in its place,
		// and migrate it as the next read-write Open would.
		dir := t.TempDir()
		s, err := Open(dir, Options{SealBytes: -1, SyncEvery: -1, BlockBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		want := copyLegacy(t, dir)
		if s.man, err = loadManifest(dir); err != nil {
			t.Fatal(err)
		}
		m := imageEvery(t, s)
		if err := s.compact(); err != nil {
			t.Fatal(err)
		}
		if got := pointsSeen(m.all()); got != "compact:built compact:committed compact:dropped " {
			t.Fatalf("boundaries imaged: %s", got)
		}
		if man, _ := s.snapshot(); len(man.Segments) != 1 || man.Segments[0].legacy() {
			t.Fatalf("%d segments after the migration, want one HNSTORE3", len(man.Segments))
		}
		checkNoOrphans(t, "migrated", s)
		for _, img := range m.all() {
			checkImage(t, "compact", img, want)
		}
	})
}

// TestFailedSealRetries: a seal that fails (here: its segment file
// cannot be created) refuses appends while the cause stands, and the
// sync loop's tick retries it — so once the cause is gone ingestion
// resumes by itself, with every accepted record present exactly once.
func TestFailedSealRetries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SealBytes: 8 << 10, SyncEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	block := obstructSeal(t, s)
	want := appendUntilRefused(t, s)
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for resumed := 0; resumed < 100; {
		r := mkRecord(len(want)%3, len(want))
		if err := s.Append(r); err == nil {
			want = append(want, r)
			resumed++
		} else if time.Now().After(deadline) {
			t.Fatalf("appends never resumed after the obstruction was removed: %v", err)
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if Sealing(dir) {
		t.Fatal("wal-sealing.jsonl left behind")
	}
	s2, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkHistory(t, "after retry", s2, want)
}

// TestCloseDoesNotBlockReaders parks Close's seal after its segments
// are built: appends must already be refused, and a reader, a query
// and a metrics scrape must all return while Close is still in there.
func TestCloseDoesNotBlockReaders(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SealBytes: -1, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	fill(t, s, n, 3)
	reg := obs.NewRegistry()
	s.Register(reg)
	parked, release := make(chan struct{}), make(chan struct{})
	s.step = func(point string) {
		if point == "seal:built" {
			close(parked)
			<-release
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	<-parked

	read := make(chan error, 1)
	go func() {
		if got := s.Len(); got != n {
			read <- fmt.Errorf("Len() = %d during Close, want %d", got, n)
			return
		}
		res, err := s.RunQuery(&Query{})
		if err != nil {
			read <- err
			return
		}
		rows := 0
		for res.Next() {
			rows++
		}
		if err := res.Close(); err != nil || rows != n {
			read <- fmt.Errorf("query during Close returned %d rows (%v), want %d", rows, err, n)
			return
		}
		if err := reg.WritePrometheus(io.Discard); err != nil {
			read <- err
			return
		}
		if err := s.Append(mkRecord(0, n)); err == nil {
			read <- fmt.Errorf("Append accepted while Close is sealing")
			return
		}
		read <- nil
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case err := <-closed:
		t.Fatalf("Close returned (%v) while its seal was parked", err)
	case <-time.After(20 * time.Second):
		t.Fatal("readers blocked behind Close's seal")
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}
