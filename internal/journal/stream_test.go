package journal

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// streamOpts opens a journal with the replication tail enabled and no
// fsync (the streaming contract is independent of durability policy).
// The tail keeps nothing until Retain turns it on.
func streamOpts(tailBytes int) Options {
	return Options{Fsync: FsyncNever, TailBytes: tailBytes}
}

func TestStreamSeqNumbersAppends(t *testing.T) {
	j, _ := openT(t, t.TempDir(), streamOpts(1<<20))
	defer j.Close()
	j.Retain(true)
	if got := j.Seq(); got != 0 {
		t.Fatalf("fresh Seq = %d, want 0", got)
	}
	for i := 1; i <= 5; i++ {
		if err := j.Append("test.op", payload{N: i}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if got := j.Seq(); got != int64(i) {
			t.Fatalf("Seq after %d appends = %d", i, got)
		}
	}
	recs, ok := j.TailSince(nil, 0)
	if !ok || len(recs) != 5 {
		t.Fatalf("TailSince(0) = %d records, ok=%t, want 5, true", len(recs), ok)
	}
	for i, sr := range recs {
		if sr.Seq != int64(i+1) {
			t.Fatalf("record %d has seq %d", i, sr.Seq)
		}
		rec, n, err := DecodeRecord(sr.Frame)
		if err != nil || n != len(sr.Frame) {
			t.Fatalf("frame %d: decode err=%v consumed=%d/%d", i, err, n, len(sr.Frame))
		}
		var p payload
		if err := rec.Decode(&p); err != nil || p.N != i+1 {
			t.Fatalf("frame %d decoded to %+v (err %v)", i, p, err)
		}
	}
	// A caught-up reader gets an empty, ok tail.
	if recs, ok := j.TailSince(nil, j.Seq()); !ok || len(recs) != 0 {
		t.Fatalf("caught-up TailSince = %d records, ok=%t", len(recs), ok)
	}
	// Partial reads resume mid-tail.
	if recs, ok := j.TailSince(nil, 3); !ok || len(recs) != 2 || recs[0].Seq != 4 {
		t.Fatalf("TailSince(3) = %+v, ok=%t", recs, ok)
	}
}

func TestStreamTailEvictionForcesResync(t *testing.T) {
	// A tiny byte budget evicts early records; a reader holding an old
	// position must be told to resync rather than fed a gapped tail.
	j, _ := openT(t, t.TempDir(), streamOpts(128))
	defer j.Close()
	j.Retain(true)
	for i := 0; i < 50; i++ {
		if err := j.Append("test.op", payload{N: i, S: "padding-padding"}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if _, ok := j.TailSince(nil, 0); ok {
		t.Fatal("TailSince(0) reported ok over an evicted prefix")
	}
	// The newest record is always reachable.
	recs, ok := j.TailSince(nil, j.Seq()-1)
	if !ok || len(recs) != 1 || recs[0].Seq != j.Seq() {
		t.Fatalf("TailSince(seq-1) = %+v, ok=%t", recs, ok)
	}
}

func TestStreamAppendFrameReplicatesVerbatim(t *testing.T) {
	// Leader journals records; its frames, re-journaled on a follower
	// with AppendFrame, must produce a byte-identical WAL that recovers
	// to the same records.
	leader, _ := openT(t, t.TempDir(), streamOpts(1<<20))
	defer leader.Close()
	followerDir := t.TempDir()
	follower, _ := openT(t, followerDir, streamOpts(1<<20))
	leader.Retain(true)
	follower.Retain(true)
	for i := 0; i < 10; i++ {
		if err := leader.Append("test.op", payload{N: i}); err != nil {
			t.Fatalf("leader Append: %v", err)
		}
	}
	recs, ok := leader.TailSince(nil, 0)
	if !ok {
		t.Fatal("leader tail unexpectedly evicted")
	}
	for _, sr := range recs {
		if err := appendRaw(follower, sr.Frame); err != nil {
			t.Fatalf("AppendFrame seq %d: %v", sr.Seq, err)
		}
	}
	if follower.Seq() != leader.Seq() {
		t.Fatalf("follower seq %d, leader seq %d", follower.Seq(), leader.Seq())
	}
	// The follower's retained frames are byte-identical to the leader's.
	frecs, _ := follower.TailSince(nil, 0)
	for i := range recs {
		if !bytes.Equal(recs[i].Frame, frecs[i].Frame) {
			t.Fatalf("frame %d diverged between leader and follower", i)
		}
	}
	if err := follower.Close(); err != nil {
		t.Fatalf("follower Close: %v", err)
	}
	// Recovery replays exactly the streamed records.
	reopened, recovered := openT(t, followerDir, streamOpts(1<<20))
	defer reopened.Close()
	if len(recovered.Records) != 10 {
		t.Fatalf("recovered %d records, want 10", len(recovered.Records))
	}
	for i, rec := range recovered.Records {
		var p payload
		if err := rec.Decode(&p); err != nil || p.N != i {
			t.Fatalf("recovered record %d = %+v (err %v)", i, p, err)
		}
	}
}

// appendRaw is the follower's sequence: validate once, then journal.
func appendRaw(j *Journal, raw []byte) error {
	f, err := CheckFrame(raw)
	if err != nil {
		return err
	}
	return j.AppendFrame(f)
}

func TestStreamAppendFrameRejectsBadFrames(t *testing.T) {
	j, _ := openT(t, t.TempDir(), streamOpts(1<<20))
	defer j.Close()
	if err := j.AppendFrame(Frame{}); err == nil {
		t.Fatal("AppendFrame accepted a frame CheckFrame never saw")
	}
	if err := appendRaw(j, []byte("not a frame")); err == nil {
		t.Fatal("AppendFrame accepted garbage")
	}
	good, err := AppendRecord(nil, "test.op", payload{N: 1})
	if err != nil {
		t.Fatalf("AppendRecord: %v", err)
	}
	if err := appendRaw(j, append(good, 0xff)); err == nil {
		t.Fatal("AppendFrame accepted trailing bytes")
	}
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff
	if err := appendRaw(j, corrupt); err == nil {
		t.Fatal("AppendFrame accepted a bad CRC")
	}
	if got := j.Seq(); got != 0 {
		t.Fatalf("rejected frames advanced seq to %d", got)
	}
	if err := appendRaw(j, good); err != nil {
		t.Fatalf("AppendFrame valid frame: %v", err)
	}
	if got := j.Seq(); got != 1 {
		t.Fatalf("Seq after valid frame = %d", got)
	}
}

func TestStreamSnapshotWithCutsAtExactSeq(t *testing.T) {
	j, _ := openT(t, t.TempDir(), streamOpts(1<<20))
	defer j.Close()
	for i := 0; i < 7; i++ {
		if err := j.Append("test.op", payload{N: i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	data, seq, err := j.SnapshotWith(func() ([]byte, error) {
		// state() runs with appends blocked, so the seq reported must be
		// exactly the journal's sequence at this instant.
		return []byte("state"), nil
	})
	if err != nil {
		t.Fatalf("SnapshotWith: %v", err)
	}
	if string(data) != "state" || seq != 7 {
		t.Fatalf("SnapshotWith = (%q, %d), want (state, 7)", data, seq)
	}
}

func TestStreamChangesBroadcastsOnAppend(t *testing.T) {
	j, _ := openT(t, t.TempDir(), streamOpts(1<<20))
	defer j.Close()
	ch := j.Changes()
	select {
	case <-ch:
		t.Fatal("Changes closed before any append")
	default:
	}
	if err := j.Append("test.op", payload{N: 1}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	select {
	case <-ch:
	case <-time.After(2 * time.Second):
		t.Fatal("Changes not closed by append")
	}
	// The broadcast renews: a fresh channel waits for the next append.
	ch2 := j.Changes()
	select {
	case <-ch2:
		t.Fatal("renewed Changes channel already closed")
	default:
	}
}

func TestStreamRotateClearsTail(t *testing.T) {
	j, _ := openT(t, t.TempDir(), streamOpts(1<<20))
	defer j.Close()
	j.Retain(true)
	for i := 0; i < 5; i++ {
		if err := j.Append("test.op", payload{N: i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	seq := j.Seq()
	if err := j.Rotate(func() ([]byte, error) { return []byte("snap"), nil }); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if got := j.Seq(); got != seq {
		t.Fatalf("Rotate moved seq from %d to %d", seq, got)
	}
	// Everything pre-rotation is snapshot-only now: readers holding an
	// old position must resync.
	if _, ok := j.TailSince(nil, 0); ok {
		t.Fatal("TailSince(0) ok after rotation cleared the tail")
	}
	if recs, ok := j.TailSince(nil, seq); !ok || len(recs) != 0 {
		t.Fatalf("caught-up TailSince after rotate = %d records, ok=%t", len(recs), ok)
	}
	// New appends stream again from the post-rotation position.
	if err := j.Append("test.op", payload{N: 99}); err != nil {
		t.Fatalf("Append after rotate: %v", err)
	}
	recs, ok := j.TailSince(nil, seq)
	if !ok || len(recs) != 1 || recs[0].Seq != seq+1 {
		t.Fatalf("post-rotate TailSince = %+v, ok=%t", recs, ok)
	}
}

// TestTailSinceMatchesLinearScan: TailSince indexes the tail by sequence
// number; the linear definition — every retained record past after, ok
// unless the tail has lost the record after it — must agree with it for
// any after, across random appends of random sizes (so the byte cap
// evicts at varying rates), rotations, frames streamed in, trims at
// random acknowledgements and retention switched on and off. The tail's
// byte count must be the sum of the frames it holds, and a journal that
// does not retain must hold none.
func TestTailSinceMatchesLinearScan(t *testing.T) {
	linear := func(j *Journal, after int64) ([]StreamRecord, bool) {
		j.mu.Lock()
		defer j.mu.Unlock()
		if after >= j.seq {
			return nil, true
		}
		var out []StreamRecord
		reached := false
		for _, r := range j.tail {
			reached = reached || r.Seq == after+1
			if r.Seq > after {
				out = append(out, r)
			}
		}
		if !reached {
			return nil, false
		}
		return out, true
	}
	held := func(j *Journal) (size int, retain bool, n int) {
		j.mu.Lock()
		defer j.mu.Unlock()
		for _, r := range j.tail {
			size += len(r.Frame)
		}
		return size, j.retain, len(j.tail)
	}
	rng := rand.New(rand.NewSource(30))
	j, _ := openT(t, t.TempDir(), streamOpts(2048))
	defer j.Close()
	j.Retain(true)
	var scratch []StreamRecord
	for step := 0; step < 5000; step++ {
		var err error
		switch n := rng.Intn(100); {
		case n < 2:
			err = j.Rotate(func() ([]byte, error) { return []byte("snap"), nil })
		case n < 4:
			// Mostly on: a leader keeps its tail for a term at a time.
			j.Retain(rng.Intn(4) > 0)
		case n < 20:
			// An acknowledgement anywhere from long past to not yet
			// appended (a trim past the head drops everything).
			j.Trim(j.Seq() - int64(rng.Intn(40)) + 2)
		case n < 28:
			var frame []byte
			if frame, err = AppendRecord(nil, "test.op", payload{N: step}); err == nil {
				err = appendRaw(j, frame)
			}
		default:
			err = j.Append("test.op", payload{N: step, S: strings.Repeat("x", rng.Intn(400))})
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		size, retain, n := held(j)
		if got := j.Stats().TailBytes; got != size {
			t.Fatalf("step %d: the tail counts %d bytes, its frames sum to %d", step, got, size)
		}
		if !retain && n > 0 {
			t.Fatalf("step %d: %d records held with retention off", step, n)
		}
		seq := j.Seq()
		for k := 0; k < 4; k++ {
			after := seq - int64(rng.Intn(40)) + 2
			if k == 0 {
				after = rng.Int63n(seq + 2)
			}
			var got []StreamRecord
			var gotOK bool
			if k%2 == 0 {
				got, gotOK = j.TailSince(nil, after)
			} else {
				// A reused window reads the same as a fresh one.
				scratch, gotOK = j.TailSince(scratch[:0], after)
				got = scratch
			}
			want, wantOK := linear(j, after)
			if gotOK != wantOK || len(got) != len(want) || (len(got) > 0 && (got[0].Seq != want[0].Seq || got[len(got)-1].Seq != want[len(want)-1].Seq)) {
				t.Fatalf("step %d, seq %d: TailSince(%d) = %d records ok=%t, the linear scan %d ok=%t",
					step, seq, after, len(got), gotOK, len(want), wantOK)
			}
			for i := range got {
				if got[i].Seq != want[i].Seq || !bytes.Equal(got[i].Frame, want[i].Frame) {
					t.Fatalf("step %d: TailSince(%d) record %d is seq %d, the linear scan's %d", step, after, i, got[i].Seq, want[i].Seq)
				}
			}
		}
	}
}

// TestTrimKeepsTheTailsArray: a leader whose followers keep up trims its
// tail to empty after nearly every message. The backing array must
// survive that, or every append reallocates it.
func TestTrimKeepsTheTailsArray(t *testing.T) {
	j, _ := openT(t, t.TempDir(), streamOpts(1<<20))
	defer j.Close()
	j.Retain(true)
	for i := 0; i < 8; i++ {
		if err := j.Append("test.op", payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Trim(j.Seq() - 1)
	if len(j.tail) != 1 || j.tail[0].Seq != j.Seq() {
		t.Fatalf("after the trim the tail holds %+v, want only seq %d", j.tail, j.Seq())
	}
	j.Trim(j.Seq())
	if len(j.tail) != 0 || cap(j.tail) < 8 || j.tailSize != 0 {
		t.Fatalf("emptied tail: len %d cap %d size %d, want 0, at least 8, 0", len(j.tail), cap(j.tail), j.tailSize)
	}
	j.Retain(false)
	if j.tail != nil || j.tailSize != 0 {
		t.Fatalf("retention off left %d records, %d bytes", len(j.tail), j.tailSize)
	}
}
