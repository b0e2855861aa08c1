package store

import (
	"bytes"
	"math/rand"
	"testing"
)

// codecTestInputs builds inputs spanning the codec's regimes: empty,
// tiny, highly repetitive, JSONL-like, and incompressible.
func codecTestInputs() [][]byte {
	rng := rand.New(rand.NewSource(7))
	rnd := make([]byte, 1<<18)
	rng.Read(rnd)
	jsonl := bytes.Repeat([]byte(`{"id":123,"start":"2021-07-03T12:30:45Z","hp":"hp-1","client_ip":"203.0.113.9","proto":"ssh","logins":[{"user":"root","pass":"123456","ok":false}]}`+"\n"), 1500)
	long := make([]byte, 300) // forces extended literal/match lengths
	for i := range long {
		long[i] = byte(i % 7)
	}
	return [][]byte{
		nil,
		[]byte("a"),
		[]byte("abcdefghijkl"),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
		bytes.Repeat([]byte("abcd"), 5000),
		long,
		jsonl,
		rnd[:37],
		rnd,
		append(append([]byte{}, jsonl[:1000]...), rnd[:1000]...),
	}
}

func TestLZRoundTrip(t *testing.T) {
	var c lzCodec
	for i, in := range codecTestInputs() {
		comp := c.compress(nil, in)
		out := make([]byte, len(in))
		if err := c.decompress(out, comp); err != nil {
			t.Fatalf("input %d: decompress: %v", i, err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("input %d: round trip mismatch (%d bytes in, %d compressed)", i, len(in), len(comp))
		}
	}
}

func TestLZCompresses(t *testing.T) {
	var c lzCodec
	in := bytes.Repeat([]byte(`{"id":1,"proto":"ssh","client_ip":"203.0.113.9"}`+"\n"), 2000)
	comp := c.compress(nil, in)
	if len(comp) > len(in)/10 {
		t.Fatalf("repetitive JSONL compressed to %d of %d bytes; want ≤ 10%%", len(comp), len(in))
	}
}

func TestLZDecompressRejectsGarbage(t *testing.T) {
	var c lzCodec
	cases := [][]byte{
		{0x01},                   // literal promised, absent
		{0xF0},                   // extended literal length, no bytes
		{0x0F, 0x00, 0x00},       // match with zero offset
		{0x00, 0x05, 0x00},       // match offset beyond output
		{0x1F, 'a', 0x01, 0x00},  // extended match length truncated... then EOF
		{0xFF, 0xFF, 0xFF, 0xFF}, // runaway extended lengths
	}
	for i, in := range cases {
		out := make([]byte, 64)
		if err := c.decompress(out, in); err == nil {
			t.Errorf("case %d: corrupt input decompressed without error", i)
		}
	}
	// Wrong declared size must error too.
	comp := c.compress(nil, []byte("hello hello hello hello"))
	if err := c.decompress(make([]byte, 5), comp); err == nil {
		t.Error("short dst accepted")
	}
}

// FuzzBlockCodec fuzzes both directions: any input must round-trip
// exactly, and decompressing the input as if it were a compressed
// stream must never panic or read out of bounds.
func FuzzBlockCodec(f *testing.F) {
	for _, in := range codecTestInputs() {
		if len(in) < 1<<16 {
			f.Add(in)
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var c lzCodec
		comp := c.compress(nil, in)
		out := make([]byte, len(in))
		if err := c.decompress(out, comp); err != nil {
			t.Fatalf("decompress(compress(x)): %v", err)
		}
		if !bytes.Equal(out, in) {
			t.Fatal("round trip mismatch")
		}
		if len(in) > lzMaxExpand*len(comp) {
			t.Fatalf("%d bytes compressed to %d: past the expansion bound parseColDir enforces", len(in), len(comp))
		}
		// Treat the raw input as a compressed stream: must not panic,
		// any error is fine.
		_ = c.decompress(make([]byte, 1024), in)
		_ = c.decompress(nil, in)
	})
}

func BenchmarkBlockCodec(b *testing.B) {
	in := bytes.Repeat([]byte(`{"id":123,"start":"2021-07-03T12:30:45Z","hp":"hp-1","client_ip":"203.0.113.9","proto":"ssh","logins":[{"user":"root","pass":"123456","ok":false}]}`+"\n"), 1500)
	var c lzCodec
	comp := c.compress(nil, in)
	b.Run("compress-lz", func(b *testing.B) {
		b.SetBytes(int64(len(in)))
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = c.compress(buf[:0], in)
		}
		b.ReportMetric(float64(len(in))/float64(len(comp)), "ratio")
	})
	b.Run("decompress-lz", func(b *testing.B) {
		b.SetBytes(int64(len(in)))
		out := make([]byte, len(in))
		for i := 0; i < b.N; i++ {
			if err := c.decompress(out, comp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
