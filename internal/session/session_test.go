package session

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

func TestKindTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		rec  Record
		want Kind
	}{
		{"scanning", Record{}, Scanning},
		{"scouting", Record{Logins: []LoginAttempt{{Username: "root", Password: "root"}}}, Scouting},
		{"scouting multi", Record{Logins: []LoginAttempt{{}, {}, {}}}, Scouting},
		{"intrusion", Record{Logins: []LoginAttempt{{Success: true}}}, Intrusion},
		{"intrusion after fails", Record{Logins: []LoginAttempt{{}, {Success: true}}}, Intrusion},
		{"cmdexec", Record{
			Logins:   []LoginAttempt{{Success: true}},
			Commands: []Command{{Raw: "uname"}},
		}, CommandExec},
	}
	for _, c := range cases {
		if got := c.rec.Kind(); got != c.want {
			t.Errorf("%s: Kind = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{Scanning, Scouting, Intrusion, CommandExec} {
		if k.String() == "" || k.String()[0] == 'k' {
			t.Errorf("kind %d has no proper name: %q", k, k.String())
		}
	}
}

func TestCommandText(t *testing.T) {
	r := Record{Commands: []Command{{Raw: "uname -a"}, {Raw: "nproc"}}}
	if got := r.CommandText(); got != "uname -a\nnproc" {
		t.Errorf("CommandText = %q", got)
	}
	var empty Record
	if empty.CommandText() != "" {
		t.Error("empty record must have empty text")
	}
}

func TestMonthAndDay(t *testing.T) {
	r := Record{Start: time.Date(2022, 3, 17, 13, 45, 0, 0, time.UTC)}
	if got := r.Month(); !got.Equal(time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("Month = %v", got)
	}
	if got := r.Day(); !got.Equal(time.Date(2022, 3, 17, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("Day = %v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := []*Record{
		{
			ID: 1, Start: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
			HoneypotID: "hp-1", ClientIP: "10.0.0.1", Protocol: ProtoSSH,
			Logins:   []LoginAttempt{{Username: "root", Password: "admin", Success: true}},
			Commands: []Command{{Raw: `echo -e "\x6F\x6B"`, Known: true}},
			Downloads: []Download{
				{URI: "http://10.9.9.9/x", SourceIP: "10.9.9.9", Hash: "ab", Size: 10},
			},
			ExecAttempts:  []ExecAttempt{{Path: "/tmp/x", FileExists: true, Hash: "ab"}},
			StateChanged:  true,
			DroppedHashes: []string{"ab"},
		},
		{ID: 2, ClientIP: "10.0.0.2", Protocol: ProtoTelnet},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records", len(got))
	}
	if got[0].Commands[0].Raw != recs[0].Commands[0].Raw {
		t.Errorf("command lost: %+v", got[0].Commands)
	}
	if got[0].Kind() != CommandExec || got[1].Kind() != Scanning {
		t.Error("kinds lost across serialization")
	}
	if got[0].Downloads[0].SourceIP != "10.9.9.9" {
		t.Errorf("download lost: %+v", got[0].Downloads)
	}
}

func TestReadAllRejectsGarbage(t *testing.T) {
	if _, err := ReadAll(bytes.NewBufferString("{\"id\":1}\nnot json\n")); err == nil {
		t.Error("garbage input must fail")
	}
}

// TestObsTrailerLineSkipped: a session log from an older honeypotd
// holds an {"_obs":...} metrics trailer after its records; it loads
// through Reader with that line skipped and every record kept.
func TestObsTrailerLineSkipped(t *testing.T) {
	const log = `{"id":1,"start":"2023-11-14T00:00:00Z","client_ip":"10.0.0.1","proto":"ssh"}
{"_obs":{"time":"2023-11-14T01:00:00Z","reason":"drain","metrics":{"honeynet_sessionlog_written_total":2}}}
{"id":2,"start":"2023-11-14T00:05:00Z","client_ip":"10.0.0.2","proto":"ssh"}
`
	path := filepath.Join(t.TempDir(), "sessions.jsonl")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ids []uint64
	r := NewReader(f)
	for r.Next() {
		ids = append(ids, r.Record().ID)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("loaded records %v, want [1 2] with the trailer skipped", ids)
	}
}

func TestKindClassificationProperty(t *testing.T) {
	// Property: Kind is consistent with its defining predicates.
	f := func(nFails uint8, success bool, nCmds uint8) bool {
		var r Record
		for i := 0; i < int(nFails%5); i++ {
			r.Logins = append(r.Logins, LoginAttempt{})
		}
		if success {
			r.Logins = append(r.Logins, LoginAttempt{Success: true})
			for i := 0; i < int(nCmds%4); i++ {
				r.Commands = append(r.Commands, Command{Raw: "x"})
			}
		}
		k := r.Kind()
		switch {
		case len(r.Logins) == 0:
			return k == Scanning
		case !success:
			return k == Scouting
		case len(r.Commands) == 0:
			return k == Intrusion
		default:
			return k == CommandExec
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaybeGzipReader(t *testing.T) {
	payload := []byte(`{"id":1,"start":"2022-01-02T03:04:05Z","end":"2022-01-02T03:05:05Z","hp":"hp-1","client_ip":"10.0.0.1","proto":"ssh"}` + "\n")

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"plain", payload},
		{"gzip", gz.Bytes()},
	} {
		r, err := MaybeGzipReader(bytes.NewReader(tc.in))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("%s: read %q, want %q", tc.name, got, payload)
		}
	}

	// Degenerate inputs must not error: empty and single-byte streams
	// are shorter than the magic.
	for _, in := range [][]byte{nil, {0x1f}} {
		r, err := MaybeGzipReader(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("short input: %v", err)
		}
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("short input read: %v", err)
		}
		if !bytes.Equal(got, in) {
			t.Errorf("short input: read %q, want %q", got, in)
		}
	}
}

func TestReadAllTransparentGzip(t *testing.T) {
	recs := []*Record{
		{ID: 7, Start: time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC), ClientIP: "10.0.0.7", Protocol: ProtoSSH},
	}
	var plain bytes.Buffer
	w := NewWriter(&plain)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&gz)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 7 {
		t.Fatalf("gzip ReadAll = %+v", got)
	}
}
