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
// delivered after it is released, under Table.order.
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
// released and t.order held; events is non-empty only when a hook is
// installed.
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

// StreamReplayer applies journaled table records one at a time, in
// journal order, on top of a table holding the snapshot they follow (or
// an empty one): the one way a record reaches a table, at boot from the
// WAL tail and on a replication follower from its leader's stream. A
// table journals its mutations in the order it applied them (its order
// lock), so replay keeps no state of its own: every record is absolute,
// and one the table already reflects — an admit of a held handle, a
// cancel of a withdrawn or compacted one, a compact of absent handles —
// is a no-op. Not safe for concurrent use; both feeds are serial.
type StreamReplayer struct {
	t *Table
}

// NewStreamReplayer builds a stream replayer over t.
func NewStreamReplayer(t *Table) *StreamReplayer {
	return &StreamReplayer{t: t}
}

// Apply replays one journaled record. Records outside the "resv."
// vocabulary are ignored, so a mixed broker journal feeds straight
// through; an unknown "resv." op is an error (a version-skew tripwire,
// not a tolerable torn write).
func (s *StreamReplayer) Apply(rec journal.Record) error {
	if !strings.HasPrefix(rec.Op, "resv.") {
		return nil
	}
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
		if _, ok := t.resv[a.Resv.Handle]; !ok {
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
		}
		t.mu.Unlock()
	default:
		return fmt.Errorf("resv: replay: unknown record op %q", rec.Op)
	}
	return nil
}
