package obs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"e2eqos/internal/journal"
)

// eventOp is the journal record op framing every flight-recorder
// event. Events live in their own segment files, never in a broker's
// write-ahead log, so the op only needs to be distinct within the
// event log itself.
const eventOp = "obs.event"

// The recorder rotates its active segment once it exceeds segmentBytes
// and keeps segments of them, deleting older ones: a ~16MiB bound on
// disk, plus one in-flight record, no matter how long the broker runs
// or how hot the sampler is.
const (
	segmentBytes = 4 << 20
	segments     = 4
)

// Recorder is the flight recorder's disk half: a bounded ring of
// CRC-framed binary segment files under one directory. Append frames
// the event with the journal codec into a recorder-owned buffer and
// writes it with one syscall — no allocation on the steady path — so
// a 1% sampling rate is invisible next to the crypto on the reserve
// chain. When the active segment fills, the recorder rotates and
// deletes the oldest segment: the newest events always survive, the
// oldest are the ones to go.
//
// A nil *Recorder drops everything, so disabled recording threads the
// same code as disabled metrics.
type Recorder struct {
	dir string

	mu   sync.Mutex
	f    *os.File
	seq  uint64 // sequence number of the active segment
	size int64  // bytes written to the active segment
	buf  []byte // reusable frame buffer
}

// segName formats the segment file name for sequence n; the zero-pad
// keeps lexical order equal to numeric order.
func segName(n uint64) string { return fmt.Sprintf("events-%08d.elog", n) }

// segSeq parses a segment file name, reporting ok=false for foreign
// files in the directory.
func segSeq(name string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "events-%d.elog", &n); err != nil {
		return 0, false
	}
	return n, filepath.Ext(name) == ".elog"
}

// listSegments returns the event segments under dir, oldest first.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := segSeq(e.Name()); ok {
			seqs = append(seqs, n)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// OpenRecorder opens (or creates) the event log under dir and resumes
// appending to the newest existing segment.
func OpenRecorder(dir string) (*Recorder, error) {
	if dir == "" {
		return nil, errors.New("obs: recorder needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &Recorder{dir: dir, buf: make([]byte, 0, 4096)}
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) > 0 {
		r.seq = seqs[len(seqs)-1]
	}
	f, err := os.OpenFile(filepath.Join(r.dir, segName(r.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r.f, r.size = f, st.Size()
	return r, nil
}

// Append frames ev and writes it to the active segment, rotating
// first if the segment is full. Nil recorders drop the event.
func (r *Recorder) Append(ev *Event) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return errors.New("obs: recorder is closed")
	}
	buf, err := journal.AppendRecord(r.buf[:0], eventOp, ev)
	if err != nil {
		return err
	}
	r.buf = buf
	if r.size > 0 && r.size+int64(len(buf)) > segmentBytes {
		if err := r.rotate(); err != nil {
			return err
		}
	}
	n, err := r.f.Write(buf)
	r.size += int64(n)
	return err
}

// rotate (mu held) opens the next segment and prunes the oldest.
func (r *Recorder) rotate() error {
	if err := r.f.Close(); err != nil {
		return err
	}
	r.f = nil
	r.seq++
	f, err := os.OpenFile(filepath.Join(r.dir, segName(r.seq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	r.f, r.size = f, 0
	if r.seq >= segments {
		// Best-effort prune; a missing file is already pruned.
		os.Remove(filepath.Join(r.dir, segName(r.seq-segments)))
	}
	return nil
}

// Close flushes nothing (writes are unbuffered) and closes the active
// segment. Append after Close errors.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// EventFilter selects events for ReadEvents. Zero fields match
// everything.
type EventFilter struct {
	Verdict     string        // exact span-verdict match: granted, denied, error, rolled_back
	Domain      string        // recording broker's domain
	Kind        string        // reserve or tunnel-batch
	TraceID     string        // exact trace id
	MinDuration time.Duration // keep events at least this slow
}

// Match reports whether e passes the filter.
func (f *EventFilter) Match(e *Event) bool {
	if f == nil {
		return true
	}
	if f.Verdict != "" && e.Verdict != f.Verdict {
		return false
	}
	if f.Domain != "" && e.Domain != f.Domain {
		return false
	}
	if f.Kind != "" && e.Kind != f.Kind {
		return false
	}
	if f.TraceID != "" && e.TraceID != f.TraceID {
		return false
	}
	if f.MinDuration > 0 && e.DurationNS < f.MinDuration.Nanoseconds() {
		return false
	}
	return true
}

// ReadEvents walks the event log under dir oldest-segment-first,
// calling fn for each decoded event until fn returns false.
//
// The reader tolerates racing a live writer, because that is exactly
// when someone reads a flight recorder: a segment that vanishes
// between the listing and the read was pruned by the writer's rotation
// (its events were the oldest — the ring's contract says they go), and
// a frame that fails to decode ends that segment rather than the whole
// read. The latter covers both a torn tail from a crash and the frame
// the writer is mid-write right now; bytes after a bad frame are
// unreachable anyway, since frames are not self-synchronizing.
func ReadEvents(dir string, fn func(*Event) bool) error {
	seqs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // pruned by the writer after the listing
			}
			return err
		}
		for len(data) > 0 {
			rec, n, err := journal.DecodeRecord(data)
			if err != nil {
				break // torn or in-flight frame: the segment ends here
			}
			data = data[n:]
			if rec.Op != eventOp {
				continue
			}
			var ev Event
			if err := rec.Decode(&ev); err != nil {
				return fmt.Errorf("segment %s: %w", segName(seq), err)
			}
			if !fn(&ev) {
				return nil
			}
		}
	}
	return nil
}
