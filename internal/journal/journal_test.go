package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"e2eqos/internal/wire"
)

// payload is the tests' record type: 1=n 2=s.
type payload struct {
	N int
	S string
}

func (p payload) AppendBinary(buf []byte) []byte {
	buf = wire.AppendInt(buf, 1, int64(p.N))
	return wire.AppendString(buf, 2, p.S)
}

func (p *payload) DecodeBinary(data []byte) error {
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TVarint:
			p.N = int(d.Varint())
		case f == 2 && wt == wire.TBytes:
			p.S = d.String()
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}

func openT(t *testing.T, dir string, opts Options) (*Journal, *Recovered) {
	t.Helper()
	j, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rec
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	frame, err := AppendRecord(nil, "test.op", payload{N: 7, S: "x"})
	if err != nil {
		t.Fatalf("AppendRecord: %v", err)
	}
	rec, n, err := DecodeRecord(frame)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if n != len(frame) {
		t.Fatalf("consumed %d of %d bytes", n, len(frame))
	}
	if rec.Op != "test.op" {
		t.Fatalf("op = %q", rec.Op)
	}
	var p payload
	if err := rec.Decode(&p); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if p.N != 7 || p.S != "x" {
		t.Fatalf("payload = %+v", p)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	good, _ := AppendRecord(nil, "op", payload{N: 1})

	if _, _, err := DecodeRecord(nil); err != io.EOF {
		t.Errorf("empty buf: err = %v, want io.EOF", err)
	}
	if _, _, err := DecodeRecord(good[:5]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: err = %v, want ErrTruncated", err)
	}
	if _, _, err := DecodeRecord(good[:len(good)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("short payload: err = %v, want ErrTruncated", err)
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xff
	if _, _, err := DecodeRecord(flipped); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad crc: err = %v, want ErrCorrupt", err)
	}

	zero := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(zero[0:4], 0)
	if _, _, err := DecodeRecord(zero); !errors.Is(err, ErrCorrupt) {
		t.Errorf("zero length: err = %v, want ErrCorrupt", err)
	}

	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[0:4], MaxRecordSize+1)
	if _, _, err := DecodeRecord(huge); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized length: err = %v, want ErrCorrupt", err)
	}

	// Whole frames (length and checksum hold) around payloads that are
	// not a record of this version: not a tear, not corruption.
	for name, payload := range map[string][]byte{
		"legacy JSON record":  []byte(`{"op":"resv.admit","data":{"seq":1}}`),
		"future version":      {recMagic, wire.Version + 1, 0x01, 'x'},
		"magic alone":         {recMagic},
		"empty op":            {recMagic, wire.Version, 0x00},
		"torn op length":      {recMagic, wire.Version, 0x80},
		"op past end of data": {recMagic, wire.Version, 0x09, 'x'},
	} {
		_, n, err := DecodeRecord(frameRaw(payload))
		if !errors.Is(err, wire.ErrUnsupportedFormat) || errors.Is(err, ErrCorrupt) || n != 0 {
			t.Errorf("%s: n = %d, err = %v, want wire.ErrUnsupportedFormat", name, n, err)
		}
	}
}

// TestOpenRefusesWholeFramesItCannotRead: a log holding a frame that was
// written whole by another build — the JSON records of the pre-binary
// journal, or a record version from the future — must fail Open by name
// and stay byte-identical on disk. Treating it as a torn tail would drop
// that frame and every record behind it without a word.
func TestOpenRefusesWholeFramesItCannotRead(t *testing.T) {
	for name, foreign := range map[string][]byte{
		"legacy JSON record": []byte(`{"op":"resv.admit","data":{"resv":{"Handle":"net-d1-1","Bandwidth":1000000},"seq":1}}`),
		"future version":     {recMagic, wire.Version + 1, 0x04, 't', 'e', 's', 't'},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
			j.Append("test.op", payload{N: 1})
			j.Close()
			path := filepath.Join(dir, walFile)
			wal, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			after, _ := AppendRecord(nil, "test.op", payload{N: 2})
			wal = append(append(wal, frameRaw(foreign)...), after...) // mid-WAL: a good record follows
			if err := os.WriteFile(path, wal, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Recover(dir); !errors.Is(err, wire.ErrUnsupportedFormat) {
				t.Fatalf("Recover: err = %v, want wire.ErrUnsupportedFormat", err)
			}
			j2, rec, err := Open(dir, Options{Fsync: FsyncAlways})
			if !errors.Is(err, wire.ErrUnsupportedFormat) {
				if j2 != nil {
					j2.Close()
				}
				t.Fatalf("Open: err = %v (recovered %+v), want wire.ErrUnsupportedFormat", err, rec)
			}
			if now, _ := os.ReadFile(path); !bytes.Equal(now, wal) {
				t.Fatalf("failed Open rewrote the log: %d bytes, was %d", len(now), len(wal))
			}
		})
	}
}

func TestAppendRecoverAllPolicies(t *testing.T) {
	for _, pol := range []Policy{FsyncBatch, FsyncAlways, FsyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			j, rec := openT(t, dir, Options{Fsync: pol, BatchInterval: time.Millisecond})
			if rec.Snapshot != nil || len(rec.Records) != 0 {
				t.Fatalf("fresh dir recovered %+v", rec)
			}
			for i := 0; i < 10; i++ {
				if err := j.Append("test.op", payload{N: i}); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			_, rec2 := openT(t, dir, Options{Fsync: pol})
			if len(rec2.Records) != 10 {
				t.Fatalf("recovered %d records, want 10", len(rec2.Records))
			}
			for i, r := range rec2.Records {
				var p payload
				if err := r.Decode(&p); err != nil || p.N != i {
					t.Fatalf("record %d: %+v, %v", i, p, err)
				}
			}
			if rec2.Torn {
				t.Fatal("clean log reported torn")
			}
		})
	}
}

func TestRecoverToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	for i := 0; i < 3; i++ {
		if err := j.Append("test.op", payload{N: i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	j.Close()

	// Tear the final record in half, as a crash mid-write would.
	path := filepath.Join(dir, walFile)
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, wal[:len(wal)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rec := openT(t, dir, Options{Fsync: FsyncAlways})
	if !rec.Torn {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
	// New appends must extend the valid prefix, not the torn garbage.
	if err := j2.Append("test.op", payload{N: 99}); err != nil {
		t.Fatalf("Append after torn recovery: %v", err)
	}
	j2.Close()
	_, rec3 := openT(t, dir, Options{})
	if rec3.Torn || len(rec3.Records) != 3 {
		t.Fatalf("after torn repair: torn=%v records=%d, want clean 3", rec3.Torn, len(rec3.Records))
	}
}

func TestRecoverStopsAtGarbage(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncAlways})
	j.Append("test.op", payload{N: 1})
	j.Close()

	path := filepath.Join(dir, walFile)
	wal, _ := os.ReadFile(path)
	wal = append(wal, bytes.Repeat([]byte{0xde, 0xad}, 32)...)
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rec.Torn || len(rec.Records) != 1 {
		t.Fatalf("torn=%v records=%d, want torn with 1 record", rec.Torn, len(rec.Records))
	}
}

func TestCrashDropsUnflushedBatch(t *testing.T) {
	dir := t.TempDir()
	// A huge batch interval guarantees nothing is flushed before Crash.
	j, _ := openT(t, dir, Options{Fsync: FsyncBatch, BatchInterval: time.Hour})
	j.Append("test.op", payload{N: 1})
	j.Crash()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("crash leaked %d buffered records to disk", len(rec.Records))
	}
}

// TestSyncMakesBatchDurable: the sync Close does reaches the disk.
func TestSyncMakesBatchDurable(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncBatch, BatchInterval: time.Hour})
	j.Append("test.op", payload{N: 1})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j.Crash() // even a crash after Close loses nothing
	rec, _ := Recover(dir)
	if len(rec.Records) != 1 {
		t.Fatalf("recovered %d records after Close+Crash, want 1", len(rec.Records))
	}
}

func TestRotateSnapshotsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncNever})
	for i := 0; i < rotateEvery; i++ {
		if j.NeedRotate() {
			t.Fatalf("NeedRotate true after %d appends", i)
		}
		j.Append("test.op", payload{N: i})
	}
	if !j.NeedRotate() {
		t.Fatal("NeedRotate false after rotateEvery appends")
	}
	state := []byte(`{"reconstructed":true}`)
	if err := j.Rotate(func() ([]byte, error) { return state, nil }); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if j.NeedRotate() {
		t.Fatal("NeedRotate true right after rotation")
	}
	j.Append("test.op", payload{N: 100})
	j.Close()

	_, rec := openT(t, dir, Options{})
	if !bytes.Equal(rec.Snapshot, state) {
		t.Fatalf("snapshot = %q, want %q", rec.Snapshot, state)
	}
	if len(rec.Records) != 1 {
		t.Fatalf("tail has %d records, want 1 (post-rotation only)", len(rec.Records))
	}
}

func TestRotateBatchBufferSubsumedBySnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncBatch, BatchInterval: time.Hour})
	j.Append("test.op", payload{N: 1}) // stuck in the batch buffer
	if err := j.Rotate(func() ([]byte, error) { return []byte(`{"n":1}`), nil }); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	j.Close()
	_, rec := openT(t, dir, Options{})
	if len(rec.Records) != 0 {
		t.Fatalf("buffered pre-snapshot record leaked into the tail: %d records", len(rec.Records))
	}
	if rec.Snapshot == nil {
		t.Fatal("snapshot missing after rotation")
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if err := j.Append("op", nil); err != nil {
		t.Fatalf("nil Append: %v", err)
	}
	if err := j.Rotate(func() ([]byte, error) { return nil, nil }); err != nil {
		t.Fatalf("nil Rotate: %v", err)
	}
	if j.NeedRotate() {
		t.Fatal("nil NeedRotate = true")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	j.Crash()
	if s := j.Stats(); s != (Stats{}) {
		t.Fatalf("nil Stats = %+v", s)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		err  bool
	}{
		{"", FsyncBatch, false},
		{"batch", FsyncBatch, false},
		{"always", FsyncAlways, false},
		{"never", FsyncNever, false},
		{"sometimes", 0, true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", c.in, got, err)
		}
	}
}

func TestStatsAndHooks(t *testing.T) {
	dir := t.TempDir()
	var appends, fsyncs int
	j, _ := openT(t, dir, Options{
		Fsync:    FsyncAlways,
		OnAppend: func(time.Duration) { appends++ },
		OnFsync:  func() { fsyncs++ },
	})
	for i := 0; i < 4; i++ {
		j.Append("test.op", payload{N: i})
	}
	st := j.Stats()
	if st.Appends != 4 || j.Err() != nil {
		t.Fatalf("Stats = %+v", st)
	}
	if appends != 4 || fsyncs != 4 {
		t.Fatalf("hooks: appends=%d fsyncs=%d, want 4/4", appends, fsyncs)
	}
	j.Close()
}

func TestConcurrentAppendRecoversAll(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncBatch, BatchInterval: 500 * time.Microsecond})
	const workers, per = 8, 50
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < per; i++ {
				j.Append("test.op", payload{N: w*per + i})
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != workers*per {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), workers*per)
	}
	seen := make(map[int]bool)
	for _, r := range rec.Records {
		var p payload
		if err := r.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if seen[p.N] {
			t.Fatalf("duplicate record %d", p.N)
		}
		seen[p.N] = true
	}
}

func TestAppendAfterCloseErrors(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{Fsync: FsyncNever})
	j.Close()
	if err := j.Append("op", nil); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}
