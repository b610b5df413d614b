package journal

import (
	"fmt"
	"time"
)

// Streaming support: every appended CRC-framed record is numbered by a
// per-incarnation sequence. A journal opened with Options.TailBytes > 0
// and told to Retain keeps the records appended since in an in-memory
// tail. A replication leader reads the tail with TailSince and ships
// the raw frames to followers, which validate each once with CheckFrame
// and re-journal it verbatim with AppendFrame — the follower's WAL ends
// up byte-identical to the leader's suffix, so recovery replays the
// same records on either side. A reader that fell off the tail (or a
// fresh follower) takes a snapshot via SnapshotWith instead.
//
// A frame lives in the tail until Trim drops it, once every reader has
// acknowledged it; TailBytes only caps a tail whose slowest reader
// stopped acknowledging. A follower does not retain: nobody reads its
// tail, since a promotion starts every stream from a snapshot.
//
// Sequence numbers are deliberately per-incarnation: they start at
// zero on Open and never try to line up across restarts. Every stream
// therefore begins with a snapshot carrying the seq it was cut at, and
// incremental frames only ever extend that snapshot.

// StreamRecord is one framed record as it sits in the WAL: Frame is
// the complete CRC-framed encoding (header + payload) and Seq its
// position in this incarnation's append order. Frames handed out by
// TailSince are immutable; callers must not modify them.
type StreamRecord struct {
	Seq   int64
	Frame []byte
}

// Seq reports the sequence number of the most recently appended
// record (zero before the first append of this incarnation).
func (j *Journal) Seq() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Changes returns a channel closed by the next append. Each call may
// return a new channel; stream pumps wait on it, then re-call after
// draining TailSince — the close-and-renew broadcast makes one append
// wake every waiting pump without per-pump registration.
func (j *Journal) Changes() <-chan struct{} {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.changes == nil {
		j.changes = make(chan struct{})
	}
	return j.changes
}

// tailChunkBytes is the size of the chunks the stream tail copies its
// frames into.
const tailChunkBytes = 16 << 10

// noteAppendLocked numbers one appended frame, retains it in the tail
// while retention is on (evicting past the byte cap) and wakes stream
// pumps. Caller holds j.mu. The frame is copied before retention: both
// append paths reuse their buffers.
func (j *Journal) noteAppendLocked(frame []byte) {
	j.seq++
	if j.retain {
		j.tail = append(j.tail, StreamRecord{Seq: j.seq, Frame: j.keepLocked(frame)})
		j.tailSize += len(frame)
		for j.tailSize > j.opts.TailBytes && len(j.tail) > 0 {
			// A reader this far behind resyncs from a snapshot. Reslicing
			// keeps eviction O(1) while that reader stays silent.
			j.tailSize -= len(j.tail[0].Frame)
			j.tail[0].Frame = nil
			j.tail = j.tail[1:]
		}
	}
	if j.changes != nil {
		close(j.changes)
		j.changes = nil
	}
}

// keepLocked copies a frame into the tail's current chunk, starting a
// new chunk when it does not fit, so the tail holds its frames in a few
// allocations, not one each. A chunk is written only past the frames
// already cut from it, and never reused: the last frame to leave the
// tail lets it go. Caller holds j.mu.
func (j *Journal) keepLocked(frame []byte) []byte {
	if len(frame) > cap(j.chunk)-len(j.chunk) {
		j.chunk = make([]byte, 0, max(tailChunkBytes, len(frame)))
	}
	n := len(j.chunk)
	j.chunk = append(j.chunk, frame...)
	return j.chunk[n:len(j.chunk):len(j.chunk)]
}

// Retain turns the stream tail on or off: on, every later append is
// kept until Trim or the byte cap drops it; off, the tail is dropped
// and appends keep nothing. A journal opened with TailBytes zero never
// retains. A replication leader turns it on before its streams cut
// their first snapshot, and off when it steps down.
func (j *Journal) Retain(on bool) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.retain = on && j.opts.TailBytes > 0
	if !j.retain {
		j.tail, j.tailSize, j.chunk = nil, 0, nil
	}
}

// Trim drops every retained record with sequence number at or below
// through: the leader calls it once every follower has acknowledged
// them, so no stream will read them again.
func (j *Journal) Trim(through int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.tail) == 0 || j.tail[0].Seq > through {
		return
	}
	j.dropHeadLocked(int(min(through-j.tail[0].Seq+1, int64(len(j.tail)))))
}

// dropHeadLocked removes the tail's first n records. The survivors —
// on a healthy leader, the one message in flight — move to the front,
// so the backing array is kept and the next appends do not reallocate
// it. Caller holds j.mu.
func (j *Journal) dropHeadLocked(n int) {
	for _, r := range j.tail[:n] {
		j.tailSize -= len(r.Frame)
	}
	m := copy(j.tail, j.tail[n:])
	clear(j.tail[m:])
	j.tail = j.tail[:m]
}

// TailSince appends to dst every retained record with sequence number
// greater than after, in order, and returns the extended slice. ok is
// false when the tail no longer reaches back that far — records were
// trimmed, evicted by the byte cap, cleared by a rotation or never
// retained — in which case the reader must resynchronise from a
// snapshot. An after at or past the current seq returns (dst, true):
// the reader is caught up. Readers that reuse dst should clear it
// after use, or it pins frames the tail has since dropped.
func (j *Journal) TailSince(dst []StreamRecord, after int64) ([]StreamRecord, bool) {
	if j == nil {
		return dst, true
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if after >= j.seq {
		return dst, true
	}
	if len(j.tail) == 0 || j.tail[0].Seq > after+1 {
		return dst, false
	}
	// The tail's sequence numbers are contiguous (appends extend it by
	// one; trims, eviction and rotation cut only its head), so the first
	// record past after is found by subtraction.
	i := int(after + 1 - j.tail[0].Seq)
	return append(dst, j.tail[i:]...), true
}

// Frame is one raw framed record that CheckFrame found whole: length,
// checksum and header hold and nothing trails it. Only CheckFrame makes
// one, so whoever holds a Frame may apply its record and journal its
// bytes without validating either again.
type Frame struct {
	raw []byte
	rec Record
}

// Record returns the record the frame holds (its Data aliases the
// frame's bytes).
func (f Frame) Record() Record { return f.rec }

// CheckFrame validates one streamed frame against the CRC framing. A
// frame that does not decode cleanly, or carries trailing bytes, is
// refused.
func CheckFrame(raw []byte) (Frame, error) {
	rec, n, err := DecodeRecord(raw)
	if err != nil {
		return Frame{}, fmt.Errorf("journal: streamed frame: %w", err)
	}
	if n != len(raw) {
		return Frame{}, fmt.Errorf("journal: streamed frame: %d trailing bytes", len(raw)-n)
	}
	return Frame{raw: raw, rec: rec}, nil
}

// AppendFrame journals one checked frame verbatim under the configured
// fsync policy — the follower half of replication: frames streamed off
// a leader's tail are re-journaled byte-for-byte, so the follower's own
// recovery replays exactly what the leader logged. The Frame type is
// the proof that the bytes were validated before they touch the buffer.
func (j *Journal) AppendFrame(f Frame) error {
	if j == nil {
		return nil
	}
	frame := f.raw
	if len(frame) == 0 {
		return fmt.Errorf("journal: append-frame: frame was not checked")
	}
	t0 := time.Now()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("journal: append after close")
	}
	if j.opts.Fsync == FsyncBatch {
		start := len(j.buf)
		j.buf = append(j.buf, frame...)
		frame = j.buf[start:]
	}
	return j.logLocked(frame, t0)
}

// SnapshotWith builds a state snapshot atomically with the journal's
// sequence counter: state() runs with appends blocked (the same
// contract as Rotate's state callback — it may take the owning layer's
// locks, which never hold appends open), so the returned seq is
// exactly the last record the snapshot reflects. Unlike Rotate nothing
// is written to disk and the WAL is untouched; this is the catch-up
// snapshot a leader cuts for a lagging or fresh follower.
func (j *Journal) SnapshotWith(state func() ([]byte, error)) ([]byte, int64, error) {
	if j == nil {
		data, err := state()
		return data, 0, err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	data, err := state()
	if err != nil {
		return nil, 0, fmt.Errorf("journal: building snapshot: %w", err)
	}
	return data, j.seq, nil
}
