package resv

import (
	"fmt"
	"strings"
	"time"

	"e2eqos/internal/journal"
)

// Journal record vocabulary for reservation-table mutations. Every
// record is absolute — it states the resulting value, never a delta —
// so replaying a record over a snapshot that already reflects it is a
// no-op, the idempotency the journal's rotation protocol depends on.
const (
	opAdmit   = "resv.admit"
	opCancel  = "resv.cancel"
	opCompact = "resv.compact"
)

// event is one pending journal emission, collected under Table.mu and
// delivered after it is released.
type event struct {
	op   string
	data journal.BinaryRecord
}

// admitRec journals a successful admission: the full reservation copy
// plus the sequence counter it advanced to. Carrying the whole
// reservation (not the request) makes replay exact — handle, creation
// stamp and all.
type admitRec struct {
	Resv Reservation
	Seq  int64
}

// cancelRec journals a withdrawal with its retirement stamp.
type cancelRec struct {
	Handle      string
	CancelledAt time.Time
}

// compactRec journals the exact handle set a compaction removed.
// Handles are never reused, so removal commutes with admissions of
// other handles during replay.
type compactRec struct {
	Removed []string
}

func admitEvent(r *Reservation, seq int64) event {
	return event{opAdmit, admitRec{Resv: *r, Seq: seq}}
}

func cancelEvent(handle string, at time.Time) event {
	return event{opCancel, cancelRec{Handle: handle, CancelledAt: at}}
}

func compactEvent(removed []string) event {
	return event{opCompact, compactRec{Removed: removed}}
}

// emitAll delivers pending events to the emit hook. Called with t.mu
// released; events is non-empty only when a hook is installed.
func (t *Table) emitAll(events []event) {
	for _, e := range events {
		t.emit(e.op, e.data)
	}
}

// setEmit installs the journal emission hook. Must be called before
// the table is shared between goroutines (broker construction time):
// the hook pointer itself is read without the table lock.
func (t *Table) setEmit(fn func(op string, data journal.BinaryRecord)) {
	t.mu.Lock()
	t.emit = fn
	t.mu.Unlock()
}

// AttachJournal wires t's emission hook to j: every subsequent
// successful Admit, Cancel and Compact (including the
// automatic sweep piggybacked on Admit) appends one typed record.
// Attach before sharing t between goroutines. A nil journal detaches.
func AttachJournal(t *Table, j *journal.Journal) {
	if j == nil {
		t.setEmit(nil)
		return
	}
	t.setEmit(func(op string, data journal.BinaryRecord) {
		// Durability errors are sticky in the journal (Stats.Err /
		// OnError); admission itself must not fail on a full disk.
		_ = j.Append(op, data)
	})
}

// streamTombHorizon bounds how long a StreamReplayer remembers a
// compaction tombstone, in applied records. A tombstone only matters
// when the compact record overtook the admit record it removes — an
// inversion produced by a goroutine preempted between applying and
// emitting, so the two records sit within an emission window of each
// other, never thousands of records apart. The horizon keeps the
// tombstone set bounded on a long-lived follower; a WAL tail replayed
// at boot is rotated away at about half of it.
const streamTombHorizon = 8192

// StreamReplayer applies journaled table records one at a time, in
// journal order, on top of a table holding the snapshot they follow (or
// an empty one): the one way a record reaches a table, at boot from the
// WAL tail and on a replication follower from its leader's stream. Every
// record is absolute, so one the table already reflects is a no-op. It
// tolerates what concurrent emission can do to the order: a compact
// record that arrives before the admit record it removed (the admitter
// was preempted between applying and emitting) leaves a tombstone
// behind, and the late admit is suppressed when it shows up — handles
// are never reused, so the tombstone is unambiguous; a cancel record for
// an absent handle is skipped, the entry was compacted and the
// withdrawal is moot. Not safe for concurrent use; both feeds are
// serial.
type StreamReplayer struct {
	t     *Table
	seq   int64 // records applied, for tombstone aging
	tombs map[string]int64
}

// NewStreamReplayer builds a stream replayer over t.
func NewStreamReplayer(t *Table) *StreamReplayer {
	return &StreamReplayer{t: t, tombs: make(map[string]int64)}
}

// Reset forgets the tombstones — called when a full snapshot replaces
// the table's state, which already reflects everything they were
// guarding against.
func (s *StreamReplayer) Reset() {
	s.tombs = make(map[string]int64)
}

// Apply replays one journaled record. Records outside the "resv."
// vocabulary are ignored, so a mixed broker journal feeds straight
// through; an unknown "resv." op is an error (a version-skew tripwire,
// not a tolerable torn write).
func (s *StreamReplayer) Apply(rec journal.Record) error {
	if !strings.HasPrefix(rec.Op, "resv.") {
		return nil
	}
	s.seq++
	t := s.t
	switch rec.Op {
	case opAdmit:
		var a admitRec
		if err := rec.Decode(&a); err != nil {
			return err
		}
		t.mu.Lock()
		if a.Seq > t.seq {
			t.seq = a.Seq
		}
		if _, tombed := s.tombs[a.Resv.Handle]; tombed {
			// The compact that removed this handle overtook it; the
			// tombstone has done its job (handles are never reused).
			delete(s.tombs, a.Resv.Handle)
		} else if _, ok := t.resv[a.Resv.Handle]; !ok {
			r := a.Resv
			t.insertLocked(&r)
		}
		t.mu.Unlock()
	case opCancel:
		var c cancelRec
		if err := rec.Decode(&c); err != nil {
			return err
		}
		t.mu.Lock()
		if r, ok := t.resv[c.Handle]; ok && r.Status == Granted {
			t.killLocked(r, c.CancelledAt)
		}
		t.mu.Unlock()
	case opCompact:
		var c compactRec
		if err := rec.Decode(&c); err != nil {
			return err
		}
		t.mu.Lock()
		for _, h := range c.Removed {
			if r, ok := t.resv[h]; ok {
				t.dropLocked(r)
			}
			s.tombs[h] = s.seq
		}
		t.mu.Unlock()
		if len(s.tombs) > streamTombHorizon {
			for h, at := range s.tombs {
				if s.seq-at > streamTombHorizon {
					delete(s.tombs, h)
				}
			}
		}
	default:
		return fmt.Errorf("resv: replay: unknown record op %q", rec.Op)
	}
	return nil
}
