package wire

import (
	"bytes"
	"math"
	"testing"
	"time"
	"unsafe"
)

func TestUvarintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 21, 1 << 35, math.MaxUint64} {
		buf := AppendUvarint(nil, v)
		d := Dec{Buf: buf}
		if got := d.Uvarint(); got != v || d.Err() != nil {
			t.Errorf("uvarint %d round-tripped to %d (err %v)", v, got, d.Err())
		}
		if d.More() {
			t.Errorf("uvarint %d left %d trailing bytes", v, len(buf))
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 64, math.MaxInt64, math.MinInt64} {
		buf := AppendVarint(nil, v)
		d := Dec{Buf: buf}
		if got := d.Varint(); got != v || d.Err() != nil {
			t.Errorf("varint %d round-tripped to %d (err %v)", v, got, d.Err())
		}
	}
}

func TestZigzagSmallNegativesStayShort(t *testing.T) {
	if n := len(AppendVarint(nil, -1)); n != 1 {
		t.Errorf("-1 took %d bytes, want 1", n)
	}
	if n := len(AppendVarint(nil, -64)); n != 1 {
		t.Errorf("-64 took %d bytes, want 1", n)
	}
}

func TestUvarintRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"torn":      {0x80},
		"torn long": {0x80, 0x80, 0x80},
		"too long":  bytes.Repeat([]byte{0x80}, 11),
		"overflow":  append(bytes.Repeat([]byte{0xff}, 9), 0x7f),
	}
	for name, buf := range cases {
		d := Dec{Buf: buf}
		d.Uvarint()
		if d.Err() == nil {
			t.Errorf("%s: malformed varint %x decoded without error", name, buf)
		}
	}
}

func TestZeroValuesOmitted(t *testing.T) {
	buf := AppendUint(nil, 1, 0)
	buf = AppendInt(buf, 2, 0)
	buf = AppendBool(buf, 3, false)
	buf = AppendString(buf, 4, "")
	buf = AppendBytes(buf, 5, nil)
	buf = AppendTime(buf, 6, time.Time{})
	if len(buf) != 0 {
		t.Fatalf("zero-valued fields encoded %d bytes: %x", len(buf), buf)
	}
}

func TestFieldRoundTrip(t *testing.T) {
	when := time.Date(2026, 8, 8, 12, 30, 45, 123456789, time.UTC)
	buf := AppendUint(nil, 1, 42)
	buf = AppendInt(buf, 2, -7)
	buf = AppendBool(buf, 3, true)
	buf = AppendString(buf, 4, "hello")
	buf = AppendBytes(buf, 5, []byte{0, 1, 2})
	buf = AppendTime(buf, 6, when)

	d := Dec{Buf: buf}
	for d.More() {
		f, wt := d.Tag()
		switch f {
		case 1:
			if v := d.Uvarint(); v != 42 {
				t.Errorf("field 1 = %d", v)
			}
		case 2:
			if v := d.Varint(); v != -7 {
				t.Errorf("field 2 = %d", v)
			}
		case 3:
			if !d.Bool() {
				t.Error("field 3 = false")
			}
		case 4:
			if s := d.String(); s != "hello" {
				t.Errorf("field 4 = %q", s)
			}
		case 5:
			if b := d.Bytes(); !bytes.Equal(b, []byte{0, 1, 2}) {
				t.Errorf("field 5 = %x", b)
			}
		case 6:
			if ts := d.Time(); !ts.Equal(when) {
				t.Errorf("field 6 = %v, want %v", ts, when)
			}
		default:
			d.Skip(wt)
		}
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestTimeRejectsAbsurdNanos(t *testing.T) {
	content := AppendUvarint(AppendVarint(nil, 100), 2e9)
	if ts := DecodeTime(content); !ts.IsZero() {
		t.Errorf("2e9 nanoseconds decoded to %v, want zero time", ts)
	}
}

func TestNestedRoundTrip(t *testing.T) {
	// A nested message longer than 127 bytes forces a 2-byte length
	// prefix, exercising EndNested's content shift.
	long := string(bytes.Repeat([]byte("x"), 200))
	buf := AppendString(nil, 1, "pre")
	var start int
	buf, start = BeginNested(buf, 2)
	buf = AppendString(buf, 1, long)
	buf = AppendInt(buf, 2, 99)
	buf = EndNested(buf, start)
	buf = AppendString(buf, 3, "post")

	d := Dec{Buf: buf}
	var pre, post, inner string
	var n int64
	for d.More() {
		f, wt := d.Tag()
		switch f {
		case 1:
			pre = d.String()
		case 2:
			sub := Dec{Buf: d.Bytes()}
			for sub.More() {
				sf, swt := sub.Tag()
				switch sf {
				case 1:
					inner = sub.String()
				case 2:
					n = sub.Varint()
				default:
					sub.Skip(swt)
				}
			}
			if sub.Err() != nil {
				t.Fatal(sub.Err())
			}
		case 3:
			post = d.String()
		default:
			d.Skip(wt)
		}
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if pre != "pre" || post != "post" || inner != long || n != 99 {
		t.Fatalf("nested round-trip mismatch: pre=%q post=%q len(inner)=%d n=%d",
			pre, post, len(inner), n)
	}
}

// TestNestedInSlicesText: a decoder made by NestedIn returns its strings
// as substrings of the text it was given (no allocation), the decoder it
// was read from keeps copying, and a torn field yields an empty decoder
// with the error left on the outer one.
func TestNestedInSlicesText(t *testing.T) {
	buf := AppendString(nil, 1, "outer")
	for _, id := range []string{"first", "second"} {
		var start int
		buf, start = BeginNested(buf, 2)
		buf = AppendInt(buf, 1, 7)
		buf = AppendString(buf, 2, id)
		buf = EndNested(buf, start)
	}
	text := string(buf)
	d := Dec{Buf: buf}
	var outer string
	var ids []string
	for d.More() {
		switch f, _ := d.Tag(); f {
		case 1:
			outer = d.String()
		case 2:
			sub := d.NestedIn(text)
			for sub.More() {
				if sf, swt := sub.Tag(); sf == 2 {
					ids = append(ids, sub.String())
				} else {
					sub.Skip(swt)
				}
			}
			if sub.Err() != nil {
				t.Fatal(sub.Err())
			}
		}
	}
	if d.Err() != nil || outer != "outer" || len(ids) != 2 || ids[0] != "first" || ids[1] != "second" {
		t.Fatalf("decoded outer=%q ids=%q err=%v", outer, ids, d.Err())
	}
	within := func(s string) bool {
		lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
		at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return at >= lo && at < lo+uintptr(len(text))
	}
	if !within(ids[0]) || !within(ids[1]) {
		t.Error("a nested string is not a substring of the text")
	}
	if within(outer) {
		t.Error("a string read without Text aliases the text")
	}

	torn := Dec{Buf: buf[:len(buf)-3]}
	for torn.More() {
		if f, _ := torn.Tag(); f == 2 {
			if sub := torn.NestedIn(text); torn.Err() != nil && (sub.More() || sub.String() != "") {
				t.Error("a torn nested field produced a decoder with content")
			}
		} else {
			torn.Skip(TBytes)
		}
	}
	if torn.Err() == nil {
		t.Error("a torn nested field decoded without error")
	}
}

func TestUnknownFieldsSkipped(t *testing.T) {
	buf := AppendUint(nil, 7, 1)            // unknown varint
	buf = AppendBytes(buf, 8, []byte("??")) // unknown bytes
	buf = AppendString(buf, 1, "known")
	d := Dec{Buf: buf}
	var got string
	for d.More() {
		f, wt := d.Tag()
		if f == 1 && wt == TBytes {
			got = d.String()
		} else {
			d.Skip(wt)
		}
	}
	if d.Err() != nil || got != "known" {
		t.Fatalf("skip walk: got %q, err %v", got, d.Err())
	}
}

func TestDecStickyError(t *testing.T) {
	d := Dec{Buf: []byte{0x0a, 0xff}} // field 1 bytes, length 127 but 0 remain
	d.Tag()
	d.Bytes()
	if d.Err() == nil {
		t.Fatal("truncated bytes field decoded without error")
	}
	// Every subsequent read must return zeros without advancing.
	if d.More() || d.Uvarint() != 0 || d.String() != "" || d.Rest() != nil {
		t.Fatal("reads after a decode error returned data")
	}
}

func TestTagRejectsFieldZero(t *testing.T) {
	d := Dec{Buf: []byte{0x00}} // field 0, varint
	d.Tag()
	if d.Err() == nil {
		t.Fatal("field number 0 accepted")
	}
}

func TestCanonicalBytes(t *testing.T) {
	enc := func() []byte {
		buf := AppendString(nil, 1, "a")
		buf = AppendInt(buf, 2, -5)
		buf = AppendTime(buf, 3, time.Unix(1700000000, 42).UTC())
		return buf
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("identical values encoded to different bytes")
	}
}

// TestSizesMatchAppends: the size functions announce exactly what their
// encoders write, at every length-prefix width, and nothing for what
// the encoders omit.
func TestSizesMatchAppends(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 21, 1 << 35, 1 << 63, math.MaxUint64} {
		if got, want := SizeUvarint(v), len(AppendUvarint(nil, v)); got != want {
			t.Errorf("SizeUvarint(%d) = %d, AppendUvarint writes %d", v, got, want)
		}
	}
	for _, m := range []map[string]string{nil, {"": ""}, {"k": "v", "": "x", string(make([]byte, 200)): ""}} {
		if got, want := SizeStringMap(6, m), len(AppendStringMap(nil, 6, m)); got != want {
			t.Errorf("SizeStringMap(%d entries) = %d, AppendStringMap writes %d", len(m), got, want)
		}
	}
	for _, field := range []uint32{1, 15, 16, 2047, 2048} {
		for _, n := range []int{0, 1, 127, 128, 16383, 16384} {
			if got, want := SizeBytes(field, n), len(AppendBytes(nil, field, make([]byte, n))); got != want {
				t.Errorf("SizeBytes(%d, %d) = %d, AppendBytes writes %d", field, n, got, want)
			}
		}
	}
}

// TestBytesOwnsNoMoreThanItsField: a bytes field read in place cannot be
// appended into the buffer behind it, an empty one is nil like its copy
// would be, and Nested hands a decoder's Text down (or none, when there
// is none to hand down).
func TestBytesOwnsNoMoreThanItsField(t *testing.T) {
	var start int
	buf := AppendBytes(nil, 1, []byte("ab"))
	buf = append(AppendTag(buf, 2, TBytes), 0) // present, empty
	buf, start = BeginNested(buf, 3)
	buf = AppendString(buf, 1, "inner")
	buf = EndNested(buf, start)
	orig := bytes.Clone(buf)
	for _, text := range []string{"", string(buf)} {
		d := Dec{Buf: buf, Text: text}
		d.Tag()
		if b := d.Bytes(); string(b) != "ab" || cap(b) != 2 || !bytes.Equal(append(b, 'X')[:2], []byte("ab")) || !bytes.Equal(buf, orig) {
			t.Fatalf("Bytes = %q (cap %d), buffer now % x", b, cap(b), buf)
		}
		d.Tag()
		if b := d.Bytes(); b != nil {
			t.Errorf("an empty field read as %#v, want nil", b)
		}
		d.Tag()
		sub := d.Nested()
		sub.Tag()
		s := sub.String()
		aliases := text != "" && unsafe.StringData(s) == unsafe.StringData(text[len(text)-len("inner"):])
		if s != "inner" || d.Err() != nil || sub.Err() != nil || aliases != (text != "") {
			t.Errorf("Nested under text %q read %q (aliases: %v, errs %v %v)", text, s, aliases, d.Err(), sub.Err())
		}
	}
}
