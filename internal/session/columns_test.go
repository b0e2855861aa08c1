package session

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// shredCases returns canonical lines for every record the codec cases
// can encode.
func shredCases(t testing.TB) [][]byte {
	var lines [][]byte
	for _, r := range jsonFastCases() {
		line, err := json.Marshal(r)
		if err != nil {
			continue
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		t.Fatal("no canonical cases")
	}
	return lines
}

func TestShredAssembleRoundTrip(t *testing.T) {
	var cols Columns
	for _, line := range shredCases(t) {
		if !ShredJSON(line, &cols) {
			t.Fatalf("ShredJSON rejected canonical line %s", line)
		}
		got := AppendAssembled(nil, &cols)
		if !bytes.Equal(got, line) {
			t.Fatalf("round trip mismatch:\n got %s\nwant %s", got, line)
		}
	}
}

func TestShredRejectsNonCanonical(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`null`,
		`{"proto":"ssh","id":7}`, // reordered
		`{"id":1,"start":"s","end":"e","hp":"h","client_ip":"c","proto":"p","x":1}`, // unknown trailing key
		`{"id":1,"start":"s","end":"e","hp":"h","client_ip":"c","proto":"p"} `,      // trailing byte
		`{"id":1,"start":"s","end":"e","hp":"h","client_ip":"c"}`,                   // missing required proto
		`{"id":1,"start":"s","end":"e","hp":"h","client_ip":"c","proto":"unterm`,
	}
	var cols Columns
	for _, in := range cases {
		if ShredJSON([]byte(in), &cols) {
			t.Errorf("ShredJSON accepted non-canonical %q", in)
		}
	}
}

// TestDecodeColumnsMatchesDecode: for every canonical line and every
// mask, decoding shredded fragments must equal DecodeMasked on the
// whole line.
func TestDecodeColumnsMatchesDecode(t *testing.T) {
	masks := []FieldMask{0, FAllFields, FClientIP, FEnd | FCommands, FLogins | FHashes,
		FHoneypotID | FHoneypotIP | FClientVersion | FDownloads | FExecs}
	var dec JSONDecoder
	var cols Columns
	for _, line := range shredCases(t) {
		if !ShredJSON(line, &cols) {
			t.Fatalf("shred rejected %s", line)
		}
		for _, m := range masks {
			var want, got Record
			if err := dec.DecodeMasked(line, &want, m); err != nil {
				t.Fatalf("DecodeMasked: %v", err)
			}
			if !dec.DecodeColumns(&cols, &got, m) {
				t.Fatalf("DecodeColumns rejected fragments of %s", line)
			}
			if !reflect.DeepEqual(&got, &want) {
				t.Fatalf("mask %#x mismatch on %s:\n got %+v\nwant %+v", m, line, got, want)
			}
		}
	}
}

// TestDecodeColumnsOnlyTouchesMaskedColumns pins the byte-skipping
// contract: columns outside ColumnsForMask(keep) are never read, so a
// store reader can leave them nil.
func TestDecodeColumnsOnlyTouchesMaskedColumns(t *testing.T) {
	line := shredCases(t)[1] // the fully-populated record
	var full Columns
	if !ShredJSON(line, &full) {
		t.Fatal("shred rejected full line")
	}
	var dec JSONDecoder
	for _, m := range []FieldMask{0, FClientIP, FEnd | FCommands, FAllFields} {
		need := ColumnsForMask(m)
		pruned := full
		for c := 0; c < NumColumns; c++ {
			if !need.Has(c) {
				pruned[c] = nil
			}
		}
		var want, got Record
		if err := dec.DecodeMasked(line, &want, m); err != nil {
			t.Fatal(err)
		}
		if !dec.DecodeColumns(&pruned, &got, m) {
			t.Fatalf("DecodeColumns rejected pruned fragments (mask %#x)", m)
		}
		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("pruned decode mismatch (mask %#x):\n got %+v\nwant %+v", m, got, want)
		}
	}
}

// FuzzColumnShred pins the shred/assemble identity on arbitrary input
// and, when fragments decode, value equivalence with the whole-line
// decoder.
func FuzzColumnShred(f *testing.F) {
	for _, r := range jsonFastCases() {
		if line, err := json.Marshal(r); err == nil {
			f.Add(line)
		}
	}
	f.Add([]byte(`{"id":1,"start":"2021-07-03T12:30:45Z","end":"2021-07-03T12:30:45Z","hp":"a","client_ip":"b","proto":"ssh","timeout":true}`))
	f.Add([]byte(`{"id":1e5,"start":[1,{"x":"]"}],"end":null,"hp":"h","client_ip":"c","proto":"p"}`))
	var dec JSONDecoder
	f.Fuzz(func(t *testing.T, line []byte) {
		var cols Columns
		if !ShredJSON(line, &cols) {
			// Rejected lines go to the raw overflow column; nothing to pin.
			return
		}
		// Identity: reassembling the fragments must reproduce the line.
		if got := AppendAssembled(nil, &cols); !bytes.Equal(got, line) {
			t.Fatalf("assemble mismatch:\n got %s\nwant %s", got, line)
		}
		// Equivalence: when the fragments decode on the columnar path,
		// the whole-line decoder must agree (it may additionally succeed
		// via its stdlib fallback when the columnar path bails — that is
		// the store's fallback route and is fine).
		var got Record
		if !dec.DecodeColumns(&cols, &got, FAllFields) {
			return
		}
		var want Record
		if err := dec.Decode(line, &want); err != nil {
			t.Fatalf("DecodeColumns accepted but Decode errored: %v on %q", err, line)
		}
		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("columnar decode mismatch on %q:\n got %+v\nwant %+v", line, got, want)
		}
	})
}

// TestFragReaderMatchesDecoder: what FragReader reports of a logins,
// cmds, dls, start or end fragment is what DecodeColumns builds from it
// — the logins, the element counts, CommandText byte for byte, the
// times to the location — and reading
// a fragment allocates nothing once the scratch has grown.
func TestFragReaderMatchesDecoder(t *testing.T) {
	var fr FragReader
	var cols Columns
	var d JSONDecoder
	for _, line := range shredCases(t) {
		if !ShredJSON(line, &cols) {
			t.Fatalf("ShredJSON rejected canonical line %s", line)
		}
		var r Record
		if !d.DecodeColumns(&cols, &r, FAllFields) {
			t.Fatalf("DecodeColumns rejected %s", line)
		}
		if b := cols[ColLogins]; b != nil {
			var got []LoginAttempt
			if !fr.Logins(b, func(user, pass []byte) {
				got = append(got, LoginAttempt{Username: string(user), Password: string(pass)})
			}) || len(got) != len(r.Logins) {
				t.Fatalf("Logins(%s) = %v, decoder %v", b, got, r.Logins)
			}
			for i, l := range r.Logins {
				if got[i].Username != l.Username || got[i].Password != l.Password {
					t.Fatalf("Logins(%s) = %v, decoder %v", b, got, r.Logins)
				}
			}
		}
		for c, want := range map[int]time.Time{ColStart: r.Start, ColEnd: r.End} {
			if got, ok := fr.Time(cols[c]); !ok || !sameTime(got, want) {
				t.Fatalf("Time(%s) = %v, %v; decoder %v", cols[c], got, ok, want)
			}
		}
		for c, want := range map[int]int{ColLogins: len(r.Logins), ColCmds: len(r.Commands), ColDls: len(r.Downloads)} {
			if b := cols[c]; b != nil {
				if n, ok := fr.Count(c, b); !ok || n != want {
					t.Fatalf("Count(%s, %s) = %d, %v; decoder %d", ColumnName(c), b, n, ok, want)
				}
			}
		}
		if b := cols[ColCmds]; b != nil {
			if text, ok := fr.CommandText(b); !ok || string(text) != r.CommandText() {
				t.Fatalf("CommandText(%s) = %q, %v; decoder %q", b, text, ok, r.CommandText())
			}
			if a := testing.AllocsPerRun(10, func() {
				fr.CommandText(b)
				fr.Count(ColCmds, b)
			}); a != 0 {
				t.Fatalf("reading %s allocates %.0f times", b, a)
			}
		}
		if b := cols[ColLogins]; b != nil {
			n := 0
			if a := testing.AllocsPerRun(10, func() {
				fr.Logins(b, func(_, _ []byte) { n++ })
				fr.Time(cols[ColEnd])
			}); a != 0 {
				t.Fatalf("reading %s allocates %.0f times", b, a)
			}
		}
	}
	if _, ok := fr.Count(ColLogins, []byte(`[{"user": "a","pass":"b","ok":true}]`)); ok {
		t.Fatal("Count accepted whitespace the decoder's fast grammar rejects")
	}
}
