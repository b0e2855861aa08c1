package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// savedStats counts, across the whole package run, the manifests save
// wrote and those of them the fast path did not decode exactly as
// json.Unmarshal does.
var savedStats struct {
	sync.Mutex
	saves int
	bad   []string
}

// checkFastDecode reports why the fast path's result for data differs
// from json.Unmarshal's ("" when it does not); with wantFast, declining
// input json.Unmarshal accepts is such a difference too. Each segment
// the fast path decodes must also keep as its enc exactly the bytes
// json.Marshal writes for it.
func checkFastDecode(data []byte, wantFast bool) string {
	fast, ok := decodeManifestFast(data)
	want := &manifest{}
	err := json.Unmarshal(data, want)
	switch {
	case !ok && wantFast && err == nil:
		return "the fast path fell back"
	case !ok:
		return ""
	case err != nil:
		return fmt.Sprintf("the fast path accepted what json.Unmarshal rejects (%v)", err)
	}
	for i, sm := range fast.Segments {
		enc, err := json.Marshal(sm)
		if err != nil || !bytes.Equal(sm.enc, enc) {
			return fmt.Sprintf("segment %d keeps %q as its encoding, json.Marshal writes %q (%v)", i, sm.enc, enc, err)
		}
		sm.enc = nil
	}
	if !reflect.DeepEqual(fast, want) {
		return fmt.Sprintf("the fast path decoded %s, json.Unmarshal %s", describe(fast), describe(want))
	}
	return ""
}

// describe prints m with its segments' values rather than pointers.
func describe(m *manifest) string {
	s := fmt.Sprintf("%+v", *m)
	for _, sm := range m.Segments {
		s += fmt.Sprintf(" %+v", sm)
	}
	return s
}

// TestMain holds every manifest any test of the package has the store
// save — seals, compaction, recovery, mixed-format stores — to the fast
// path: each must decode there, with no fallback, to json.Unmarshal's
// value.
func TestMain(m *testing.M) {
	savedManifest = func(data []byte) {
		why := checkFastDecode(data, true)
		savedStats.Lock()
		defer savedStats.Unlock()
		savedStats.saves++
		if why != "" {
			savedStats.bad = append(savedStats.bad, fmt.Sprintf("%s: %.200s", why, data))
		}
	}
	code := m.Run()
	if len(savedStats.bad) > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d of %d saved manifests missed the fast path:\n", len(savedStats.bad), savedStats.saves)
		for _, b := range savedStats.bad {
			fmt.Fprintln(os.Stderr, "\t"+b)
		}
		code = 1
	}
	os.Exit(code)
}

// TestSavedManifestsTakeFastPath drives the manifest writers one by
// one — Close's seal, a size-triggered seal, the compaction that
// migrates the legacy fixture, a mixed-format store — and checks that
// each wrote at least one manifest and none missed the fast path.
func TestSavedManifestsTakeFastPath(t *testing.T) {
	saw := func(name string, run func()) {
		savedStats.Lock()
		saves0, bad0 := savedStats.saves, len(savedStats.bad)
		savedStats.Unlock()
		run()
		savedStats.Lock()
		defer savedStats.Unlock()
		if savedStats.saves == saves0 {
			t.Errorf("%s saved no manifest", name)
		}
		if bad := savedStats.bad[bad0:]; len(bad) > 0 {
			t.Errorf("%s: %d manifests missed the fast path: %q", name, len(bad), bad)
		}
	}
	saw("seal on Close", func() { sealedFixture(t, t.TempDir()) })
	saw("size-triggered seal", func() {
		s, err := Open(t.TempDir(), Options{BlockBytes: 2048, SealBytes: 8 << 10})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := s.Append(mkRecord(i%3, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	saw("compaction of the legacy fixture", func() {
		dir := t.TempDir()
		copyLegacy(t, dir)
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	saw("mixed-format store", func() {
		dir := t.TempDir()
		copyLegacy(t, dir)
		sealInto(t, dir, mixedRecs(300))
	})
	checkFixtureSums(t)
}

// FuzzManifestDecode: for any input the fast path either declines it
// or decodes exactly what json.Unmarshal does, with each segment's
// span equal to json.Marshal of the segment, and it never accepts an
// input json.Unmarshal rejects.
func FuzzManifestDecode(f *testing.F) {
	dir := f.TempDir()
	sealedFixture(f, dir)
	path := filepath.Join(dir, manifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{good, []byte(`{"version":1,"next_seg":0,"next_seq":0,"segments":[]}` + "\n")}
	legacy, err := os.ReadFile(filepath.Join(legacyDir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, legacy)
	for _, s := range seeds {
		if _, ok := decodeManifestFast(s); !ok {
			f.Fatalf("the fast path declines a manifest save wrote: %.200s", s)
		}
	}
	for _, tc := range hostileManifests {
		rewriteManifest(f, dir, tc.edit)
		bad, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, bad)
		if err := os.WriteFile(path, good, 0o644); err != nil {
			f.Fatal(err)
		}
	}
	for _, src := range [][]byte{good, legacy} {
		seeds = append(seeds, manifestVariants(f, src)...)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if why := checkFastDecode(data, false); why != "" {
			t.Fatal(why)
		}
	})
}

// manifestVariants returns src truncated, with its keys reordered, with
// escapes where save writes none, and indented: inputs json.Unmarshal
// reads (or rejects) that the fast path must hand over to it.
func manifestVariants(t testing.TB, src []byte) [][]byte {
	t.Helper()
	src = slices.Clip(bytes.TrimSuffix(src, []byte("\n")))
	var out [][]byte
	for _, n := range []int{1, len(src) / 2, len(src) - 2, len(src) - 1} {
		out = append(out, src[:n])
	}
	// Reordered: a generic decode re-encodes every object with its keys
	// sorted.
	var v any
	dec := json.NewDecoder(bytes.NewReader(src))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, sorted)
	var indented bytes.Buffer
	if err := json.Indent(&indented, src, "", " "); err != nil {
		t.Fatal(err)
	}
	out = append(out, indented.Bytes())
	for _, r := range [][2]string{
		{`"seg-`, `"\u0073eg-`},
		{`Z"`, `\u005a"`},
		{`/`, `\/`},
		{`"v3"`, `"\u00763"`},
		{`"bloom":{"m"`, `"bloom":{"M"`},
		{`:1,`, `:1.0,`},
		{`:0,`, `:-0,`},
		{`,"dlen":`, `,"dlen":0,"dlen":`},
		{`"version":1`, `"version":01`},
		{`"kinds":[`, `"kinds":[0,`},
		{`"bits":"`, "\"bits\":\"\r\n"},
		{`Z"`, `.000Z"`},
		{`Z"`, `.50Z"`},
		{`Z"`, `,5Z"`},
		{`"codec":"v3"`, `"codec":""`},
		{`"v":1`, `"v":0`},
		{`"month":"`, `"month":"<`},
	} {
		if v := bytes.Replace(src, []byte(r[0]), []byte(r[1]), 1); !bytes.Equal(v, src) {
			out = append(out, v)
		}
	}
	return append(out, append(src, " \n"...), append(src, "\n\n"...), append(src, '}'))
}

// TestReopenedSealMarshalsOnlyNewSegments: a reopened store keeps each
// segment entry's bytes from the manifest it read, so a seal after the
// reopen marshals only the segments it adds, and the manifest it writes
// is byte for byte the one with every entry marshalled afresh.
func TestReopenedSealMarshalsOnlyNewSegments(t *testing.T) {
	dir := t.TempDir()
	sealedFixture(t, dir)
	s, err := Open(dir, Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.mu.RLock()
	old := slices.Clone(s.man.Segments)
	s.mu.RUnlock()
	if len(old) == 0 {
		t.Fatal("the fixture has no segments")
	}
	encs := make([]*byte, len(old))
	for i, sm := range old {
		if len(sm.enc) == 0 {
			t.Fatalf("reopened segment %d (%s) has no encoding: the next save marshals it again", i, sm.File)
		}
		encs[i] = &sm.enc[0]
	}
	for i := 120; i < 180; i++ {
		if err := s.Append(mkRecord(i%2, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	n := len(s.man.Segments)
	s.mu.RUnlock()
	if n <= len(old) {
		t.Fatalf("the seal added no segment: %d before, %d after", len(old), n)
	}
	for i, sm := range old {
		if len(sm.enc) == 0 || &sm.enc[0] != encs[i] {
			t.Errorf("segment %d (%s) was marshalled again by the seal", i, sm.File)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	fresh := &manifest{}
	if err := json.Unmarshal(got, fresh); err != nil {
		t.Fatal(err)
	}
	other := t.TempDir()
	if err := fresh.save(other); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(other, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the manifest after the reopened seal differs from one with every entry marshalled afresh:\n got %.300s\nwant %.300s", got, want)
	}
}
