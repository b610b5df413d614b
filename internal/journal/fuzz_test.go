package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"e2eqos/internal/wire"
)

// frameRaw wraps an arbitrary payload in a valid length+CRC header, so
// a seed can hand the payload decoder malformed bytes the framing layer
// would otherwise reject first.
func frameRaw(payload []byte) []byte {
	buf := make([]byte, headerSize, headerSize+len(payload))
	buf = append(buf, payload...)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	return buf
}

// FuzzDecodeRecord hammers the frame decoder with arbitrary bytes. The
// contract under fuzz: DecodeRecord never panics, never reads past the
// buffer, and classifies every input as a valid record, io.EOF,
// ErrTruncated, ErrCorrupt or wire.ErrUnsupportedFormat. A decoded
// record must re-encode to the exact bytes it was parsed from (framing
// is canonical).
func FuzzDecodeRecord(f *testing.F) {
	good, _ := AppendRecord(nil, "resv.admit", payload{N: 1})
	empty, _ := AppendRecord(nil, "resv.compact", nil)
	bin, _ := AppendRecord(nil, "resv.admit", RawBinary{0x0a, 0x01, 0x78})
	f.Add([]byte{})
	f.Add(good)
	f.Add(empty)
	f.Add(bin)
	f.Add(good[:len(good)-3])                         // torn tail
	f.Add(good[:headerSize-1])                        // torn header
	f.Add(append([]byte(nil), good[8:]...))           // payload without header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length
	f.Add(bytes.Repeat([]byte{0}, 64))
	twoThenTear := append(append([]byte(nil), good...), empty...)
	f.Add(append(twoThenTear, good[:5]...))
	f.Add(bin[:len(bin)-1]) // torn binary payload
	// Bit-flipped binary payload: framing CRC must classify it.
	flipped := append([]byte(nil), bin...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	// A binary record whose op-length varint is torn (header + CRC made
	// consistent so the payload decoder, not the framing, sees it).
	f.Add(frameRaw([]byte{recMagic, wire.Version, 0x80}))
	// recMagic with a record version from the future, and a whole frame
	// from before the binary codec.
	f.Add(frameRaw([]byte{recMagic, 99, 0x01, 'x'}))
	f.Add(frameRaw([]byte(`{"op":"resv.compact","data":{"removed":["net-d1-1"]}}`)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Walk the buffer exactly as Recover does: decode frames until
		// the first error ends the replay.
		off := 0
		for {
			rec, n, err := DecodeRecord(data[off:])
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, wire.ErrUnsupportedFormat) {
					t.Fatalf("unclassified error %v", err)
				}
				if n != 0 {
					t.Fatalf("error %v consumed %d bytes", err, n)
				}
				return
			}
			if n <= 0 || off+n > len(data) {
				t.Fatalf("decoder consumed %d bytes of a %d-byte suffix", n, len(data)-off)
			}
			if rec.Op == "" {
				t.Fatal("decoded record without op")
			}
			// Canonical framing: re-encoding the decoded payload must
			// reproduce the input frame byte for byte.
			re, err := AppendRecord(nil, rec.Op, RawBinary(rec.Data))
			if err != nil || !bytes.Equal(re, data[off:off+n]) {
				t.Fatalf("re-encode mismatch (%v): %q vs %q", err, re, data[off:off+n])
			}
			off += n
		}
	})
}
