package obs

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func sampleEvent(i int) *Event {
	return &Event{
		TimeNS:     int64(1_000_000 + i),
		Kind:       EventReserve,
		Domain:     "DomainA",
		TraceID:    "t-0011223344556677",
		RARID:      "RAR-1",
		User:       "C=US,O=Grid,CN=alice",
		Verdict:    VerdictGranted,
		Retries:    1,
		Bytes:      512,
		DurationNS: 42_000,
		Sampled:    true,
		Spans: []Span{
			{Domain: "DomainB", BB: "bb-b", Verdict: VerdictGranted, TotalNS: 1e6},
			{Domain: "DomainA", BB: "bb-a", Verdict: VerdictGranted, TotalNS: 2e6, DownstreamNS: 1.1e6},
		},
	}
}

func TestEventBinaryRoundTrip(t *testing.T) {
	ev := sampleEvent(0)
	buf := ev.AppendBinary(nil)
	var got Event
	if err := got.DecodeBinary(buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, ev) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", &got, ev)
	}
	// A forced denial with no spans — the sparse shape.
	sparse := &Event{TimeNS: 7, Kind: EventTunnelBatch, Domain: "D", Verdict: VerdictDenied, Reason: "no capacity", Ops: 64, DurationNS: 9}
	var got2 Event
	if err := got2.DecodeBinary(sparse.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got2, sparse) {
		t.Fatalf("sparse round trip mismatch:\n got %+v\nwant %+v", &got2, sparse)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := r.Append(sampleEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	var got []*Event
	if err := ReadEvents(dir, func(e *Event) bool {
		ev := *e
		got = append(got, &ev)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("read %d events, want %d", len(got), n)
	}
	for i, e := range got {
		if e.TimeNS != int64(1_000_000+i) {
			t.Fatalf("event %d out of order: ts %d", i, e.TimeNS)
		}
	}
	if !reflect.DeepEqual(got[0], sampleEvent(0)) {
		t.Fatalf("first event mismatch: %+v", got[0])
	}
}

func TestRecorderResumeAfterReopen(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Append(sampleEvent(0)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	// A restarted broker appends to the same ring.
	r2, err := OpenRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Append(sampleEvent(1)); err != nil {
		t.Fatal(err)
	}
	r2.Close()
	count := 0
	if err := ReadEvents(dir, func(*Event) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("read %d events after reopen, want 2", count)
	}
}

// fill appends sampleEvents to r until its active segment is the
// seq-th, and returns how many it appended.
func fill(t *testing.T, r *Recorder, seq uint64) int {
	t.Helper()
	n := 0
	for ; r.seq < seq; n++ {
		if err := r.Append(sampleEvent(n)); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestRecorderRotationBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Rotate until the ring has pruned its two oldest segments.
	n := int64(fill(t, r, segments+1))
	r.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "events-*.elog"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > segments {
		t.Fatalf("%d segments on disk, ring must keep <= %d", len(segs), segments)
	}
	// The survivors must be the newest events, still contiguous.
	var first, last, count int64 = -1, -1, 0
	if err := ReadEvents(dir, func(e *Event) bool {
		if first < 0 {
			first = e.TimeNS
		}
		if last >= 0 && e.TimeNS != last+1 {
			t.Fatalf("gap in surviving events: %d after %d", e.TimeNS, last)
		}
		last = e.TimeNS
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if last != 1_000_000+n-1 {
		t.Fatalf("newest surviving event is %d, want %d", last, 1_000_000+n-1)
	}
	if count == n {
		t.Fatal("ring dropped nothing; rotation never pruned")
	}
}

func TestReadEventsToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := r.Append(sampleEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	// Simulate a crash mid-append: chop bytes off the last frame.
	seg := filepath.Join(dir, segName(0))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := ReadEvents(dir, func(*Event) bool { count++; return true }); err != nil {
		t.Fatalf("torn tail must not error: %v", err)
	}
	if count != 4 {
		t.Fatalf("read %d events before the torn frame, want 4", count)
	}
}

func TestEventFilterMatch(t *testing.T) {
	ev := sampleEvent(0)
	cases := []struct {
		f    *EventFilter
		want bool
	}{
		{nil, true},
		{&EventFilter{}, true},
		{&EventFilter{Verdict: VerdictGranted}, true},
		{&EventFilter{Verdict: VerdictDenied}, false},
		{&EventFilter{Domain: "DomainA"}, true},
		{&EventFilter{Domain: "DomainB"}, false},
		{&EventFilter{Kind: EventReserve}, true},
		{&EventFilter{Kind: EventTunnelBatch}, false},
		{&EventFilter{TraceID: ev.TraceID}, true},
		{&EventFilter{TraceID: "t-ffff"}, false},
		{&EventFilter{MinDuration: 10 * time.Microsecond}, true},
		{&EventFilter{MinDuration: time.Second}, false},
		{&EventFilter{Verdict: VerdictGranted, MinDuration: time.Second}, false},
	}
	for i, c := range cases {
		if got := c.f.Match(ev); got != c.want {
			t.Errorf("case %d: Match = %t, want %t (%+v)", i, got, c.want, c.f)
		}
	}
}

func TestSamplerRate(t *testing.T) {
	if NewSampler(0) != nil || NewSampler(-1) != nil || NewSampler(math.NaN()) != nil {
		t.Fatal("non-positive rates must disable sampling entirely")
	}
	var nilS *Sampler
	if nilS.Sample() {
		t.Fatal("nil sampler must never sample")
	}
	always := NewSampler(1)
	for i := 0; i < 100; i++ {
		if !always.Sample() {
			t.Fatal("rate 1 must always sample")
		}
	}
	const n = 200_000
	for _, rate := range []float64{0.01, 0.1, 0.5} {
		s := NewSampler(rate)
		hits := 0
		for i := 0; i < n; i++ {
			if s.Sample() {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-rate) > rate*0.15 {
			t.Errorf("rate %v: sampled %.4f of %d draws", rate, got, n)
		}
	}
}

func TestRecorderNilAndClosed(t *testing.T) {
	var r *Recorder
	if err := r.Append(sampleEvent(0)); err != nil {
		t.Fatal("nil recorder must be a silent no-op")
	}
	r2, err := OpenRecorder(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r2.Close()
	if err := r2.Append(sampleEvent(0)); err == nil {
		t.Fatal("append after close must error")
	}
}

// TestRecorderAppendAllocationFree gates the sampled-event hot path:
// encoding and framing reuse the recorder's buffer, so a steady-state
// append costs no allocations.
func TestRecorderAppendAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	r, err := OpenRecorder(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ev := sampleEvent(0)
	if err := r.Append(ev); err != nil { // warm the buffer
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := r.Append(ev); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Errorf("Recorder.Append allocates %.1f per op, want 0", got)
	}
}

// TestReadEventsRacesLiveWriter is the regression test for reading a
// flight recorder that is still being written: the writer's rotation
// prunes the oldest segment with os.Remove (a reader mid-scan sees
// ENOENT), and the active segment's final frame may be half-written
// when the reader's ReadFile lands. Neither may fail the read — the
// reader must deliver every fully-written event it can still reach.
func TestReadEventsRacesLiveWriter(t *testing.T) {
	dir := t.TempDir()
	// The writer fills a segment in a few milliseconds, so rotation
	// (and pruning) happens throughout the read loop.
	r, err := OpenRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		i := 0
		for {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			if err := r.Append(sampleEvent(i)); err != nil {
				writerDone <- err
				return
			}
			i++
		}
	}()

	deadline := time.Now().Add(time.Second)
	reads := 0
	for time.Now().Before(deadline) {
		n := 0
		err := ReadEvents(dir, func(ev *Event) bool {
			if ev.Kind != EventReserve {
				t.Errorf("read a mangled event: %+v", ev)
				return false
			}
			n++
			return true
		})
		if err != nil {
			t.Fatalf("ReadEvents racing the writer: %v", err)
		}
		reads++
	}
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if reads == 0 {
		t.Fatal("reader never completed a scan")
	}
	// With the writer quiesced a scan must see the surviving ring.
	n := 0
	if err := ReadEvents(dir, func(*Event) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events survived in the ring")
	}
}

// TestReadEventsSkipsVanishedSegment pins the ENOENT tolerance
// deterministically: a segment listed but deleted before it is read
// (the writer pruned it) is skipped, not an error.
func TestReadEventsSkipsVanishedSegment(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, r, 2)
	r.Close()
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("want several segments, got %d", len(seqs))
	}
	// ReadEvents lists first, then opens; deleting after the listing is
	// indistinguishable from the race, so simulate it by removing a
	// middle segment between two reads of the same listing — the
	// simplest deterministic stand-in is removing it before the call.
	if err := os.Remove(filepath.Join(dir, segName(seqs[1]))); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := ReadEvents(dir, func(*Event) bool { n++; return true }); err != nil {
		t.Fatalf("ReadEvents with a vanished segment: %v", err)
	}
	if n == 0 {
		t.Fatal("no events read")
	}
}

// TestReadEventsToleratesTornActiveFrame pins the half-written-frame
// tolerance: a segment ending in a partial or corrupt frame (the write
// in flight at read time) ends there instead of failing the scan.
func TestReadEventsToleratesTornActiveFrame(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRecorder(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if err := r.Append(sampleEvent(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, segName(seqs[len(seqs)-1]))
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	// A frame half-flushed by a concurrent writer: append a full copy
	// of the file's first 40 bytes — a valid-looking length prefix with
	// a body that never finished.
	if err := os.WriteFile(name, append(data, data[:40]...), 0o644); err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := ReadEvents(dir, func(*Event) bool { got++; return true }); err != nil {
		t.Fatalf("ReadEvents with torn tail: %v", err)
	}
	if got != n {
		t.Fatalf("read %d events, want %d (torn frame must end the segment, not eat it)", got, n)
	}
}

func BenchmarkSamplerSample(b *testing.B) {
	s := NewSampler(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Sample()
	}
}

func BenchmarkRecorderAppend(b *testing.B) {
	r, err := OpenRecorder(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	ev := sampleEvent(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Append(ev); err != nil {
			b.Fatal(err)
		}
	}
}
