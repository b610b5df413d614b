package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"sync"
	"sync/atomic"

	"e2eqos/internal/wire"
)

// Record is one typed journal entry. Op names the mutation (the owning
// layer defines the vocabulary: "resv.admit", "bb.rar", ...) and Data
// carries its payload verbatim: the op type's AppendBinary bytes.
// Records must be absolute — they state the resulting value, not a
// delta — so that replaying a record on top of a snapshot that already
// reflects it is a no-op.
type Record struct {
	Op   string
	Data []byte
}

// BinaryRecord is what a journal payload must be: a type that encodes
// itself with the wire package, so Append journals without reflection
// or intermediate buffers.
type BinaryRecord interface {
	AppendBinary(buf []byte) []byte
}

// BinaryDecoder is the decode half, taken by Record.Decode.
type BinaryDecoder interface {
	DecodeBinary(data []byte) error
}

// RawBinary is a pre-encoded binary payload appended verbatim —
// re-framing a decoded record (tests, journal rewriting) without
// knowing its concrete type.
type RawBinary []byte

// AppendBinary writes the raw bytes through.
func (r RawBinary) AppendBinary(buf []byte) []byte { return append(buf, r...) }

// Framing: every record is length-prefixed and checksummed so recovery
// can tell a torn tail from good data without trusting file size.
//
//	uint32 LE  payload length n (1 .. MaxRecordSize)
//	uint32 LE  CRC-32C (Castagnoli) of the payload
//	n bytes    payload
//
// Payload layout:
//
//	byte 0   recMagic (0xB1)
//	byte 1   wire.Version
//	bytes    uvarint op length, op
//	bytes    payload data (the op type's AppendBinary encoding),
//	         running to the end of the frame
const headerSize = 8

const recMagic = 0xB1

// MaxRecordSize bounds one record's payload. A length field above it
// is treated as corruption, which stops a garbage frame from making
// the decoder attempt a multi-gigabyte read.
const MaxRecordSize = 1 << 24

// Decode errors. ErrTruncated is the expected shape of a torn final
// write; ErrCorrupt means the frame's length or checksum does not hold,
// so nothing says it was ever written whole. A frame whose length and
// checksum do hold but whose payload is not a record of this version
// was written whole by some other build: DecodeRecord reports it as
// wire.ErrUnsupportedFormat, which recovery refuses to treat as a tear.
var (
	ErrTruncated = errors.New("journal: truncated record")
	ErrCorrupt   = errors.New("journal: corrupt record")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord frames op+data onto buf, encoding the payload straight
// into it — the journal's zero-allocation append path. A nil payload
// journals the op alone. On error buf is returned with its original
// length, never with a partial frame.
func AppendRecord(buf []byte, op string, data BinaryRecord) ([]byte, error) {
	if op == "" {
		return buf, fmt.Errorf("journal: record without op")
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // header, patched below
	buf = append(buf, recMagic, wire.Version)
	buf = wire.AppendUvarint(buf, uint64(len(op)))
	buf = append(buf, op...)
	if data != nil {
		buf = data.AppendBinary(buf)
	}
	n := len(buf) - start - headerSize
	if n > MaxRecordSize {
		return buf[:start], fmt.Errorf("journal: %s record is %d bytes, above the %d limit", op, n, MaxRecordSize)
	}
	payload := buf[start+headerSize:]
	binary.LittleEndian.PutUint32(buf[start:start+4], uint32(n))
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// DecodeRecord parses one framed record from the front of buf,
// returning the record and the number of bytes consumed. io.EOF means
// buf is empty (clean end); ErrTruncated means buf ends mid-frame;
// ErrCorrupt that its length or checksum is wrong;
// wire.ErrUnsupportedFormat that a whole frame holds something other
// than a record of this version. DecodeRecord never reads past len(buf)
// and never panics on arbitrary input.
func DecodeRecord(buf []byte) (Record, int, error) {
	if len(buf) == 0 {
		return Record{}, 0, io.EOF
	}
	if len(buf) < headerSize {
		return Record{}, 0, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if n == 0 || n > MaxRecordSize {
		return Record{}, 0, fmt.Errorf("%w: implausible length %d", ErrCorrupt, n)
	}
	if uint64(len(buf)) < headerSize+uint64(n) {
		return Record{}, 0, ErrTruncated
	}
	payload := buf[headerSize : headerSize+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(buf[4:8]) {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	fields, err := wire.Header(payload, recMagic)
	if err != nil {
		return Record{}, 0, fmt.Errorf("journal: record payload: %w", err)
	}
	d := wire.Dec{Buf: fields}
	op := d.Bytes()
	data := d.Rest()
	if d.Err() != nil || len(op) == 0 {
		return Record{}, 0, fmt.Errorf("journal: record payload: %w: no op after the header", wire.ErrUnsupportedFormat)
	}
	return Record{Op: internOp(op), Data: data}, headerSize + int(n), nil
}

// maxOpNames bounds the interned op names. A broker's journal speaks a
// vocabulary of about a dozen ops; the bound only stops a stream of
// made-up names from growing the set without end.
const maxOpNames = 64

// opNames is the interned op-name set: a copy-on-write map, read
// without a lock by every decode and replaced whole by the rare insert.
var (
	opNames   atomic.Pointer[map[string]string]
	opNamesMu sync.Mutex // serializes inserts
)

// internOp returns op as a string: the interned copy when the set holds
// it (a recovery or a follower decodes one op per record, and allocates
// nothing for it), a fresh one otherwise, interned while the set has
// room.
func internOp(op []byte) string {
	if m := opNames.Load(); m != nil {
		if s, ok := (*m)[string(op)]; ok {
			return s
		}
	}
	s := string(op)
	opNamesMu.Lock()
	defer opNamesMu.Unlock()
	m := make(map[string]string)
	if old := opNames.Load(); old != nil {
		if len(*old) >= maxOpNames {
			return s
		}
		m = maps.Clone(*old)
	}
	m[s] = s
	opNames.Store(&m)
	return s
}

// Decode decodes the record's payload into out. out escapes through
// the interface, so a replay path that decodes every record calls the
// concrete DecodeBinary instead and wraps its failure with PayloadError.
func (r Record) Decode(out BinaryDecoder) error {
	if err := out.DecodeBinary(r.Data); err != nil {
		return r.PayloadError(err)
	}
	return nil
}

// PayloadError wraps a failure to decode the record's payload.
func (r Record) PayloadError(err error) error {
	return fmt.Errorf("journal: decoding %s payload: %w", r.Op, err)
}
