package resv

import (
	"fmt"
	"sort"
	"time"

	"e2eqos/internal/units"
)

// snapshot is the persisted form of a table.
type snapshot struct {
	Name         string
	Capacity     units.Bandwidth
	Seq          int64
	Reservations []Reservation
}

// Snapshot serialises the table so a restarting broker can restore its
// committed state. Reservations removed by compaction are absent: a
// snapshot captures the table's live admission state, not its history.
// Output is deterministic — reservations are sorted by handle, and the
// binary encoding is canonical — so two tables holding the same state
// snapshot to identical bytes, the property the journal's
// crash-recovery tests assert on.
func (t *Table) Snapshot() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := snapshot{Name: t.name, Capacity: t.capacity, Seq: t.seq}
	for _, r := range t.resv {
		s.Reservations = append(s.Reservations, *r)
	}
	sort.Slice(s.Reservations, func(i, j int) bool {
		return s.Reservations[i].Handle < s.Reservations[j].Handle
	})
	return s.appendBinary(nil), nil
}

// RestoreTable rebuilds a table from a snapshot; bytes that do not open
// with the snapshot's magic and version are wire.ErrUnsupportedFormat.
// The restored state is validated: committed bandwidth may not exceed
// the capacity at any instant, checked in one walk of the rebuilt
// ledger.
func RestoreTable(data []byte) (*Table, error) {
	var s snapshot
	if err := s.decodeBinary(data); err != nil {
		return nil, fmt.Errorf("resv: restore: %w", err)
	}
	t, err := NewTable(s.Name, s.Capacity)
	if err != nil {
		return nil, fmt.Errorf("resv: restore: %w", err)
	}
	t.seq = s.Seq
	for i := range s.Reservations {
		r := s.Reservations[i]
		if r.Handle == "" || !r.Window.Valid() || r.Bandwidth <= 0 {
			return nil, fmt.Errorf("resv: restore: invalid reservation %q", r.Handle)
		}
		if _, dup := t.resv[r.Handle]; dup {
			return nil, fmt.Errorf("resv: restore: duplicate handle %q", r.Handle)
		}
		t.insertLocked(&r)
	}
	t.led.each(func(at time.Time, level units.Bandwidth) bool {
		if level > t.capacity {
			err = fmt.Errorf("resv: restore: snapshot overcommits %v > %v at %s",
				level, t.capacity, at.Format(time.RFC3339Nano))
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ResetFrom replaces t's state with the snapshot's, in place: name,
// capacity, sequence counter and reservation set all come from the
// snapshot while the clock and emission hook are kept. The
// table pointer stays valid — a replication follower installing a
// leader snapshot resets the table its gauges and handlers already
// hold, instead of swapping in a new one under their feet. The
// snapshot is fully validated (via RestoreTable) before any state is
// touched, so a corrupt snapshot leaves t unchanged.
func (t *Table) ResetFrom(data []byte) error {
	fresh, err := RestoreTable(data)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.name = fresh.name
	t.capacity = fresh.capacity
	t.resv, t.led = fresh.resv, fresh.led
	t.seq = fresh.seq
	t.admits = 0
	return nil
}
