package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"honeynet/internal/session"
)

// inlineDir is a store sealed when segments kept their index inline in
// the manifest (testdata/inline/README.md).
const inlineDir = "testdata/inline"

// inlineSums pins the fixture's files, as its README lists them.
var inlineSums = map[string]string{
	segFileName(0):  "f0b2bf90b83ec9c13e3b95d0917237c4805ca5fbe74f8b01264590e5fd620245",
	segFileName(1):  "3c763afc7a8fb03b4bc7bc3f648125d68b78e58476dc68276c6c0430bd8a4312",
	segFileName(2):  "3ac75944ede6d8180fa4c74150ff01d0f7aa36ca583d3cb152576d25d40326de",
	segFileName(3):  "f5c119fab08fafa2d43550e7a320b24cf0696a6262242560c95670fe87d86125",
	manifestName:    "1c99c66eb01624de18514b2ebde646a8d4637be210928f5a04a5a71b5349f02e",
	"records.jsonl": "70064c26e2d48c973610adbd6842596d5a01a32401c047f54d08f685901134bc",
}

// copyInline copies the fixture's store files into dir (created if need
// be) and returns the oracle records, in append order.
func copyInline(t testing.TB, dir string) []*session.Record {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name := range inlineSums {
		data, err := os.ReadFile(filepath.Join(inlineDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "records.jsonl" {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(filepath.Join(inlineDir, "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := session.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// checkInlineSums fails t unless testdata/inline still hashes to
// inlineSums: a test that writes to a copy must never reach the fixture.
func checkInlineSums(t testing.TB) {
	t.Helper()
	for name, want := range inlineSums {
		data, err := os.ReadFile(filepath.Join(inlineDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			t.Fatalf("%s/%s changed: sha256 %x, pinned %s", inlineDir, name, sum, want)
		}
	}
}

// segmentEntries returns the bytes of each segment entry of dir's
// manifest, and its version.
func segmentEntries(t testing.TB, dir string) ([]json.RawMessage, int) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version  int               `json:"version"`
		Segments []json.RawMessage `json:"segments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Segments, doc.Version
}

// TestInlineIndexFixture: a store whose manifest holds each segment's
// Bloom filter and block index inline stays readable as it is. Read-only
// and read-write opens Stream exactly records.jsonl; `ip =` prunes by the
// inline filters exactly as the writer's own commit did; and a seal on
// top of it leaves every old entry's bytes as they were, adds only
// footer-form entries, and reopens to every record.
func TestInlineIndexFixture(t *testing.T) {
	dir := t.TempDir()
	want := copyInline(t, dir)
	checkInlineSums(t)
	stream := func(s *Store, want []*session.Record) {
		t.Helper()
		got := drainStream(t, s.Stream())
		if len(got) != len(want) {
			t.Fatalf("Stream yielded %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("Stream record %d:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	}

	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	stream(ro, want)
	// The plan statistics the fixture's writer reported for these
	// statements over the same files: an address of one segment, one of
	// the other month, and one the store never saw.
	for _, tc := range []struct {
		ip                    string
		rows, pruned, skipped int64
	}{
		{"203.0.0.10", 1, 3, 11},
		{"203.0.1.61", 1, 3, 10},
		{"198.51.100.7", 0, 4, 14},
	} {
		res, err := ro.RunQuery(&Query{Where: Cmp(FieldIP, CmpEq, StringValue(tc.ip))})
		if err != nil {
			t.Fatal(err)
		}
		var rows int64
		for res.Next() {
			if res.Record().ClientIP != tc.ip {
				t.Fatalf("ip = %s returned %s", tc.ip, res.Record().ClientIP)
			}
			rows++
		}
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		st := res.Stats()
		res.Close()
		if rows != tc.rows || st.BloomChecked != 4 || int64(st.BloomPruned) != tc.pruned || st.BlocksSkipped != tc.skipped {
			t.Errorf("ip = %s: %d rows, %+v; want %d rows, 4 checked, %d Bloom-pruned, %d blocks skipped",
				tc.ip, rows, st, tc.rows, tc.pruned, tc.skipped)
		}
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	old, _ := segmentEntries(t, inlineDir)
	s, err := Open(dir, Options{BlockBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	stream(s, want)
	for i := 120; i < 180; i++ {
		r := mkRecord(i%2, i)
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, version := segmentEntries(t, dir)
	if version != manifestVersion || len(entries) != len(old)+2 {
		t.Fatalf("after the seal: version %d with %d entries, want version %d with %d", version, len(entries), manifestVersion, len(old)+2)
	}
	for i, e := range entries {
		switch {
		case i < len(old) && !bytes.Equal(e, old[i]):
			t.Errorf("entry %d changed:\n got %s\nwant %s", i, e, old[i])
		case i >= len(old) && (bytes.Contains(e, []byte(`"bloom"`)) || bytes.Contains(e, []byte(`"blocks"`)) || !bytes.Contains(e, []byte(`"nblocks"`))):
			t.Errorf("new entry %d is not in footer form: %s", i, e)
		}
	}
	ro, err = Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	stream(ro, want)
	checkInlineSums(t)
}
