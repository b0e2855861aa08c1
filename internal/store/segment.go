package store

import "fmt"

// Segment file layout: an 8-byte magic followed by back-to-back blocks,
// with the block index (offsets, lengths, counts, CRCs) in the manifest,
// so a reader never parses a segment blind. Every reader knows one
// layout, HNSTORE3, the columnar one every seal writes (columnar.go).
// HNSTORE1 and HNSTORE2 are the row layouts older stores sealed; the
// only code that reads them is compaction (compact.go), which rewrites
// them as HNSTORE3 on a read-write open. Segments are immutable once the
// manifest references them; the migration replaces legacy ones whole.

var segMagicV3 = [8]byte{'H', 'N', 'S', 'T', 'O', 'R', 'E', '3'}

// segFileName names segment n.
func segFileName(n int) string { return fmt.Sprintf("seg-%06d.hns", n) }

// CorruptError reports segment bytes that fail verification or decoding:
// a CRC mismatch, a malformed directory, stripe or row entry, a short
// read. Block is the block's index in File.
type CorruptError struct {
	File  string
	Block int
	Err   error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: %s: block %d: %v", e.File, e.Block, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// grow returns *bp resized to n bytes, reallocating if needed.
func grow(bp *[]byte, n int) []byte {
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return (*bp)[:n]
}
