package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// Length fields read from a segment file sit behind a CRC the manifest
// supplies, so whoever can write both files chooses them. These targets
// hand the readers such bytes: any error is fine, a panic or an
// allocation sized by the attacker is not.

// craftDir encodes a one-row block directory whose leading stripes
// declare the given {clen, ulen, crc}; the rest are empty.
func craftDir(stripes ...[3]uint64) []byte {
	d := binary.AppendUvarint(nil, 1) // rows
	d = append(d, 0)                  // flags
	d = binary.AppendVarint(d, 0)     // minT
	d = binary.AppendVarint(d, 0)     // maxT
	d = append(d, 1, 1)               // kind and protocol masks
	d = binary.AppendUvarint(d, 0)    // plain columns
	d = binary.AppendUvarint(d, numStripes)
	for st := 0; st < numStripes; st++ {
		var stripe [3]uint64
		if st < len(stripes) {
			stripe = stripes[st]
		}
		for _, v := range stripe {
			d = binary.AppendUvarint(d, v)
		}
	}
	return d
}

// FuzzParseColDir presents dir as the directory of a block with
// stripeBytes of stripe data behind it, indexed by a manifest entry
// whose count and CRC agree with it, and loads every stripe the
// directory describes.
func FuzzParseColDir(f *testing.F) {
	// A negative length beside one that makes the sum come out: the
	// directory the parent accepted and then sliced by.
	f.Add(craftDir([3]uint64{^uint64(4), 10}, [3]uint64{64 + 5, 10}), uint16(64))
	// Honest lengths and CRC, absurd expansion: the parent allocated it.
	zeros := uint64(crc32.ChecksumIEEE(make([]byte, 64)))
	f.Add(craftDir([3]uint64{64, 1 << 62, zeros}), uint16(64))
	f.Add(craftDir([3]uint64{32, 100}, [3]uint64{32, 0}), uint16(64))

	path := filepath.Join(f.TempDir(), "seg")
	f.Fuzz(func(t *testing.T, dir []byte, stripeBytes uint16) {
		if len(dir) == 0 {
			return
		}
		file := append(append(segMagicV3[:len(segMagicV3):len(segMagicV3)], dir...), make([]byte, stripeBytes)...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		rows, _ := binary.Uvarint(dir)
		cs := &colSeg{f: fh, sc: acquireColScratch(), meta: &segmentMeta{File: "seg", Blocks: []blockMeta{{
			Off: int64(len(segMagicV3)), CLen: len(dir) + int(stripeBytes), DirLen: len(dir),
			Count: int(rows), CRC: crc32.ChecksumIEEE(dir),
		}}}}
		defer cs.close()
		var d colDir
		if err := cs.readDir(0, &d); err != nil {
			return
		}
		for st := 0; st < numStripes; st++ {
			cs.loadStripe(&d, st, nil) // zeros are no LZ stream: an error, never a panic
			if d.clen[st] > int(stripeBytes) || d.ulen[st] > lzMaxExpand*d.clen[st] {
				t.Fatalf("stripe %d: accepted clen=%d ulen=%d over %d stripe bytes", st, d.clen[st], d.ulen[st], stripeBytes)
			}
		}
	})
}
