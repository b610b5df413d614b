// Package wire provides the primitives of the project's length-prefixed
// binary encoding: append-style encoders that write into a caller-owned
// buffer (so steady-state encoding never allocates) and a sticky-error
// cursor decoder that never panics on arbitrary input.
//
// The encoding is a deliberately small subset of the protobuf wire
// format: every field is a uvarint tag (fieldNumber<<3 | wireType)
// followed by either a varint (wire type 0) or a length-delimited byte
// string (wire type 2). Signed integers use zigzag. Zero-valued fields
// are omitted by convention, unknown tags are skipped on decode, and
// fields are written in ascending field-number order — together that
// makes the encoding canonical: equal values encode to equal bytes,
// which is what lets envelope signatures cover encoded bytes directly.
package wire

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"time"
)

// ErrUnsupportedFormat reports input that arrived whole but is not in
// the one encoding this build reads and writes: a stored or signed
// value whose leading magic and version bytes are not the expected
// pair. State written by a build from before the binary codec (JSON,
// leading '{') and by a build from the future both land here. Nothing
// falls back to another decoder, and the journal does not mistake it
// for the torn tail of a crash.
var ErrUnsupportedFormat = errors.New("unsupported format")

// Version is the version byte every top-level encoding carries after
// its magic byte.
const Version = 1

// Header checks the magic and version bytes a top-level encoding starts
// with and returns what follows them.
func Header(data []byte, magic byte) ([]byte, error) {
	if len(data) < 2 || data[0] != magic || data[1] != Version {
		return nil, fmt.Errorf("%w: starts % x, want %02x %02x",
			ErrUnsupportedFormat, data[:min(len(data), 2)], magic, Version)
	}
	return data[2:], nil
}

// Wire types. Only two exist: everything is either a varint or bytes.
const (
	// TVarint is wire type 0: a single uvarint (or zigzag varint).
	TVarint = 0
	// TBytes is wire type 2: uvarint length followed by that many bytes.
	TBytes = 2
)

// maxVarintLen bounds one varint to the 10 bytes a uint64 needs;
// anything longer is overlong/corrupt.
const maxVarintLen = 10

// AppendUvarint appends v in LEB128 form.
func AppendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// SizeUvarint is the number of bytes AppendUvarint writes for v.
func SizeUvarint(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// SizeBytes is what AppendBytes and AppendString add for n bytes of
// content — tag, length prefix and content, or nothing for none. An
// encoder that knows the size of what it nests writes the prefix first
// and never has to shift the content (compare EndNested).
func SizeBytes(field uint32, n int) int {
	if n == 0 {
		return 0
	}
	return SizeUvarint(uint64(field)<<3) + SizeUvarint(uint64(n)) + n
}

// Zigzag maps a signed value to the unsigned space so small negatives
// stay short on the wire.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag reverses Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendVarint appends v zigzag-encoded.
func AppendVarint(buf []byte, v int64) []byte {
	return AppendUvarint(buf, Zigzag(v))
}

// AppendTag appends the tag for field with the given wire type.
func AppendTag(buf []byte, field uint32, wt byte) []byte {
	return AppendUvarint(buf, uint64(field)<<3|uint64(wt))
}

// AppendUint appends field=v, omitting zero.
func AppendUint(buf []byte, field uint32, v uint64) []byte {
	if v == 0 {
		return buf
	}
	buf = AppendTag(buf, field, TVarint)
	return AppendUvarint(buf, v)
}

// AppendInt appends field=v zigzag-encoded, omitting zero.
func AppendInt(buf []byte, field uint32, v int64) []byte {
	if v == 0 {
		return buf
	}
	buf = AppendTag(buf, field, TVarint)
	return AppendVarint(buf, v)
}

// AppendBool appends field=1, omitting false.
func AppendBool(buf []byte, field uint32, v bool) []byte {
	if !v {
		return buf
	}
	buf = AppendTag(buf, field, TVarint)
	return append(buf, 1)
}

// AppendString appends field=s, omitting the empty string.
func AppendString(buf []byte, field uint32, s string) []byte {
	if s == "" {
		return buf
	}
	buf = AppendTag(buf, field, TBytes)
	buf = AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends field=b, omitting empty/nil.
func AppendBytes(buf []byte, field uint32, b []byte) []byte {
	if len(b) == 0 {
		return buf
	}
	buf = AppendTag(buf, field, TBytes)
	buf = AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendTime appends field=t as a bytes field holding zigzag seconds +
// uvarint nanoseconds, omitting the zero time entirely so IsZero
// round-trips (a decoded absent field stays time.Time{}).
func AppendTime(buf []byte, field uint32, t time.Time) []byte {
	if t.IsZero() {
		return buf
	}
	buf = AppendTag(buf, field, TBytes)
	var tmp [maxVarintLen * 2]byte
	n := len(AppendUvarint(AppendVarint(tmp[:0], t.Unix()), uint64(t.Nanosecond())))
	buf = AppendUvarint(buf, uint64(n))
	return append(buf, tmp[:n]...)
}

// DecodeTime reverses the content of an AppendTime bytes field. An
// empty or malformed payload yields the zero time.
func DecodeTime(b []byte) time.Time {
	if len(b) == 0 {
		return time.Time{}
	}
	d := Dec{Buf: b}
	sec := d.Varint()
	nsec := d.Uvarint()
	if d.Err() != nil || nsec >= 1e9 {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// AppendStringMap appends m as repeated field entries, each a nested
// (uvarint length, key, uvarint length, value) pair, in ascending key
// order so equal maps encode to equal bytes. An empty map costs nothing;
// a non-empty one allocates the sorted key slice.
func AppendStringMap(buf []byte, field uint32, m map[string]string) []byte {
	if len(m) == 0 {
		return buf
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var start int
		buf, start = BeginNested(buf, field)
		buf = AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		v := m[k]
		buf = AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
		buf = EndNested(buf, start)
	}
	return buf
}

// SizeStringMap is what AppendStringMap adds for m. An entry holds two
// length prefixes at least, so SizeBytes never takes it for omitted.
func SizeStringMap(field uint32, m map[string]string) (n int) {
	for k, v := range m {
		n += SizeBytes(field, SizeUvarint(uint64(len(k)))+len(k)+SizeUvarint(uint64(len(v)))+len(v))
	}
	return n
}

// BeginNested opens a length-delimited nested message for field,
// returning the buffer and the offset where the nested content starts.
// The caller appends the nested fields, then calls EndNested with the
// returned offset to patch the length prefix in. Using begin/end (and
// method values rather than closures) keeps the nested encode on the
// caller's buffer with no intermediate allocation.
func BeginNested(buf []byte, field uint32) ([]byte, int) {
	buf = AppendTag(buf, field, TBytes)
	return buf, len(buf)
}

// EndNested closes a BeginNested region by inserting the uvarint length
// of everything appended since start.
func EndNested(buf []byte, start int) []byte {
	n := len(buf) - start
	var tmp [maxVarintLen]byte
	ln := len(AppendUvarint(tmp[:0], uint64(n)))
	buf = append(buf, tmp[:ln]...)           // grow by the prefix size
	copy(buf[start+ln:], buf[start:start+n]) // shift the nested content right
	copy(buf[start:], tmp[:ln])
	return buf
}

// errCorrupt is the sticky decode failure; the cursor exposes it via
// Err rather than returning errors from every read.
type corruptError string

func (e corruptError) Error() string { return "wire: " + string(e) }

// Dec is a cursor over an encoded buffer. All reads are bounds-checked;
// the first failure sets a sticky error and every subsequent read
// returns zero values, so decoders can read a whole struct and check
// Err once. Byte reads return subslices of Buf (no copying).
type Dec struct {
	Buf []byte
	// Text, when set, holds the same bytes as Buf, and String returns
	// substrings of it instead of copies: a decoder of many short strings
	// pays one allocation for all of them. Every such string keeps the
	// whole of Text alive, so it is for values dropped with the message.
	Text string
	off  int
	err  error
}

// Err returns the sticky decode error, nil while healthy.
func (d *Dec) Err() error { return d.err }

// Offset is the position in Buf of the next byte to decode.
func (d *Dec) Offset() int { return d.off }

// More reports whether undecoded bytes remain and no error occurred.
func (d *Dec) More() bool { return d.err == nil && d.off < len(d.Buf) }

func (d *Dec) fail(msg string) {
	if d.err == nil {
		d.err = corruptError(msg)
	}
}

// Uvarint reads one LEB128 value.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var v uint64
	for i := 0; i < maxVarintLen; i++ {
		if d.off >= len(d.Buf) {
			d.fail("truncated varint")
			return 0
		}
		b := d.Buf[d.off]
		d.off++
		if i == maxVarintLen-1 && b > 1 {
			d.fail("varint overflows uint64")
			return 0
		}
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			return v
		}
	}
	d.fail("varint too long")
	return 0
}

// Varint reads one zigzag value.
func (d *Dec) Varint() int64 { return Unzigzag(d.Uvarint()) }

// Bool reads one varint as a boolean.
func (d *Dec) Bool() bool { return d.Uvarint() != 0 }

// Tag reads one field tag. A zero field number is invalid.
func (d *Dec) Tag() (field uint32, wt byte) {
	t := d.Uvarint()
	if d.err != nil {
		return 0, 0
	}
	if t>>3 == 0 || t>>3 > 1<<29 {
		d.fail("invalid field number")
		return 0, 0
	}
	return uint32(t >> 3), byte(t & 7)
}

// Bytes reads one length-delimited field as a subslice of Buf: nil when
// the field is empty, as a copy of it would be, and with no capacity
// beyond its own end, so appending to it never writes into Buf.
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(d.Buf)-d.off) {
		d.fail("bytes length past end of buffer")
		return nil
	}
	d.off += int(n)
	return d.Buf[d.off-int(n) : d.off : d.off]
}

// String reads one length-delimited field as a string: one allocation,
// or none and a substring of Text when that is set.
func (d *Dec) String() string {
	b := d.Bytes()
	if d.Text == "" {
		return string(b)
	}
	return d.Text[d.off-len(b) : d.off]
}

// NestedIn reads one length-delimited field as a decoder of its own
// whose strings are substrings of text, which must hold the same bytes
// as Buf.
func (d *Dec) NestedIn(text string) Dec {
	b := d.Bytes()
	return Dec{Buf: b, Text: text[d.off-len(b) : d.off]}
}

// Nested reads one length-delimited field as a decoder of its own,
// whose strings are substrings of d's Text when d has one.
func (d *Dec) Nested() Dec {
	if d.Text == "" {
		return Dec{Buf: d.Bytes()}
	}
	return d.NestedIn(d.Text)
}

// StringPair reads one AppendStringMap entry.
func (d *Dec) StringPair() (k, v string) {
	sub := Dec{Buf: d.Bytes()}
	k, v = sub.String(), sub.String()
	if sub.err != nil && d.err == nil {
		d.err = sub.err
	}
	return k, v
}

// Rest returns every byte not yet consumed (nil after an error). The
// journal's record framing uses it: the final field of a record is the
// unbounded remainder of its already-length-prefixed frame.
func (d *Dec) Rest() []byte {
	if d.err != nil {
		return nil
	}
	b := d.Buf[d.off:]
	d.off = len(d.Buf)
	return b
}

// Time reads one length-delimited field as an AppendTime value.
func (d *Dec) Time() time.Time { return DecodeTime(d.Bytes()) }

// Skip discards one field of the given wire type, keeping unknown-field
// forward compatibility cheap.
func (d *Dec) Skip(wt byte) {
	switch wt {
	case TVarint:
		d.Uvarint()
	case TBytes:
		d.Bytes()
	default:
		d.fail("unsupported wire type")
	}
}
