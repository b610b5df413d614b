// Package resv implements GARA-style advance reservations for a single
// resource pool: a table of bandwidth commitments over time windows
// with admission control against a fixed capacity. Each bandwidth
// broker owns one table per engineered path/aggregate; a domain's CPU
// and disk pools are tables too, counting processors or disk rate in
// the bandwidth unit.
package resv

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/units"
)

// Status is the lifecycle state of a reservation.
type Status int

// Reservation states.
const (
	// Granted means admitted and (within its window) enforceable.
	Granted Status = iota
	// Cancelled means withdrawn; it no longer counts against capacity.
	Cancelled
)

func (s Status) String() string {
	switch s {
	case Granted:
		return "granted"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Reservation is one admitted bandwidth commitment.
type Reservation struct {
	Handle    string
	User      identity.DN
	SrcHost   string
	DstHost   string
	Bandwidth units.Bandwidth
	Window    units.Window
	Status    Status
	// Tunnel marks aggregate reservations usable for sub-flow
	// allocation by authorized third parties.
	Tunnel bool
	// Created is the admission wall-clock time.
	Created time.Time
	// CancelledAt records when Cancel withdrew the reservation (zero
	// while granted); compaction uses it as the retirement timestamp
	// for entries whose window would otherwise keep them around.
	CancelledAt time.Time
}

// DefaultRetention is how long a dead reservation (cancelled, or past
// its window end) stays visible before compaction removes it. The
// grace period exists for status queries and operator tooling that
// look up a reservation shortly after it ends; a long-running broker
// must not accumulate every reservation it ever admitted.
const DefaultRetention = 5 * time.Minute

// sweepEvery is how many admissions pass between automatic compaction
// sweeps. Admission is the only path that grows the table, so tying
// the sweep to it bounds the dead-entry population without a
// background goroutine: at most sweepEvery corpses accumulate between
// sweeps, amortising the O(n) scan to O(1) per admit.
const sweepEvery = 128

// Table is an admission-controlled reservation table for one capacity
// pool. It is safe for concurrent use.
//
// Dead entries — cancelled reservations and reservations whose window
// has ended — are removed once they have been dead longer than
// DefaultRetention, either by an explicit Compact call or by the
// automatic sweep piggybacked on Admit. Lookup, Covers, All and
// Snapshot therefore do not see reservations past their retention;
// callers needing a permanent record must keep their own (the broker's
// structured log is that record).
type Table struct {
	// order is the table's order lock: Admit, Cancel and Compact hold it
	// from their mutation through the append of its record, so the
	// journal holds the table's records in the order they were applied.
	// It is taken before mu and never under it or under the journal's
	// lock: Rotate, holding the journal's lock, takes mu to cut its
	// snapshot.
	order    sync.Mutex
	mu       sync.Mutex
	name     string
	capacity units.Bandwidth
	// resv holds every reservation, dead or alive, and led is the time
	// axis of the ones that count against capacity. Invariant: led is
	// exactly what booking every counted entry of resv would build.
	// Only insertLocked, killLocked and dropLocked (and ResetFrom, which
	// swaps both at once) write either.
	resv  map[string]*Reservation
	led   ledger
	seq   int64
	clock func() time.Time
	// admits counts admissions since the last automatic sweep.
	admits int
	// emit, when set, receives one typed journal event per applied
	// mutation (see journaled.go). Mutators collect events under mu and
	// invoke emit after releasing it, still under order, so the hook may
	// block on I/O or take locks of its own without stalling readers.
	emit func(op string, data journal.BinaryRecord)
}

// NewTable creates a table managing the given capacity.
func NewTable(name string, capacity units.Bandwidth) (*Table, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("resv: non-positive capacity %v", capacity)
	}
	return &Table{
		name:     name,
		capacity: capacity,
		resv:     make(map[string]*Reservation),
		clock:    time.Now,
	}, nil
}

// SetClock injects the time source used for admission stamps and
// compaction horizons (tests, simulated time). Nil restores time.Now.
func (t *Table) SetClock(clock func() time.Time) {
	if clock == nil {
		clock = time.Now
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

// Name returns the table's label.
func (t *Table) Name() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.name
}

// counted reports whether r holds capacity on the time axis. A granted
// reservation counts until compaction drops it, window-expired or not;
// an ill-formed window (only a damaged journal record can carry one)
// covers no instant and counts for nothing.
func counted(r *Reservation) bool {
	return r.Status == Granted && r.Window.Valid()
}

// bookLocked moves r's share of the time axis by bw; entries that do
// not count have none to move.
func (t *Table) bookLocked(r *Reservation, bw units.Bandwidth) {
	if counted(r) {
		t.led.book(r.Window, bw)
	}
}

// insertLocked adds r, whose handle the table does not hold yet.
// Like the two mutators below it keeps map and ledger in step;
// caller holds t.mu.
func (t *Table) insertLocked(r *Reservation) {
	t.resv[r.Handle] = r
	t.bookLocked(r, r.Bandwidth)
}

// killLocked withdraws r, releasing its capacity at once.
func (t *Table) killLocked(r *Reservation, at time.Time) {
	t.bookLocked(r, -r.Bandwidth)
	r.Status = Cancelled
	r.CancelledAt = at
}

// dropLocked forgets r altogether (compaction).
func (t *Table) dropLocked(r *Reservation) {
	t.bookLocked(r, -r.Bandwidth)
	delete(t.resv, r.Handle)
}

// Available returns the guaranteed headroom throughout w.
func (t *Table) Available(w units.Window) units.Bandwidth {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.capacity - t.led.peak(w)
}

// CommittedAt returns the committed bandwidth at instant at.
func (t *Table) CommittedAt(at time.Time) units.Bandwidth {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.led.level(at)
}

// AdmitRequest describes a candidate reservation.
type AdmitRequest struct {
	User      identity.DN
	SrcHost   string
	DstHost   string
	Bandwidth units.Bandwidth
	Window    units.Window
	Tunnel    bool
}

// Admit runs admission control and, on success, commits the
// reservation and returns it.
func (t *Table) Admit(req AdmitRequest) (*Reservation, error) {
	t.order.Lock()
	defer t.order.Unlock()
	r, events, err := t.admit(req)
	t.emitAll(events)
	return r, err
}

func (t *Table) admit(req AdmitRequest) (*Reservation, []event, error) {
	if req.Bandwidth <= 0 {
		return nil, nil, fmt.Errorf("resv: non-positive bandwidth %v", req.Bandwidth)
	}
	if !req.Window.Valid() {
		return nil, nil, fmt.Errorf("resv: invalid window %v", req.Window)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	var events []event
	t.admits++
	if t.admits >= sweepEvery {
		t.admits = 0
		if swept := t.compactLocked(now); len(swept) > 0 && t.emit != nil {
			events = append(events, compactEvent(swept))
		}
	}
	peak := t.led.peak(req.Window)
	if peak+req.Bandwidth > t.capacity {
		return nil, events, fmt.Errorf("resv: %s: insufficient capacity: peak committed %v + request %v > capacity %v",
			t.name, peak, req.Bandwidth, t.capacity)
	}
	t.seq++
	// "<name>-<seq>", built on the stack: the string is the one object.
	var buf [64]byte
	handle := strconv.AppendInt(append(append(buf[:0], t.name...), '-'), t.seq, 10)
	r := &Reservation{
		Handle:    string(handle),
		User:      req.User,
		SrcHost:   req.SrcHost,
		DstHost:   req.DstHost,
		Bandwidth: req.Bandwidth,
		Window:    req.Window,
		Status:    Granted,
		Tunnel:    req.Tunnel,
		Created:   now,
	}
	t.insertLocked(r)
	if t.emit != nil {
		events = append(events, admitEvent(r, t.seq))
	}
	return r, events, nil
}

// Cancel withdraws a reservation, releasing its capacity.
func (t *Table) Cancel(handle string) error {
	t.order.Lock()
	defer t.order.Unlock()
	events, err := t.cancel(handle)
	t.emitAll(events)
	return err
}

func (t *Table) cancel(handle string) ([]event, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.resv[handle]
	if !ok {
		return nil, fmt.Errorf("resv: unknown handle %q", handle)
	}
	if r.Status == Cancelled {
		return nil, fmt.Errorf("resv: handle %q already cancelled", handle)
	}
	t.killLocked(r, t.clock())
	if t.emit != nil {
		return []event{cancelEvent(handle, r.CancelledAt)}, nil
	}
	return nil, nil
}

// Compact removes reservations that have been dead — cancelled, or
// past their window end — for longer than the retention period as of
// now, and reports how many were removed. Admit sweeps automatically
// every sweepEvery admissions; Compact exists for callers that want
// deterministic timing (periodic maintenance, tests, snapshotting a
// long-idle table).
func (t *Table) Compact(now time.Time) int {
	t.order.Lock()
	defer t.order.Unlock()
	t.mu.Lock()
	removed := t.compactLocked(now)
	var events []event
	if len(removed) > 0 && t.emit != nil {
		events = append(events, compactEvent(removed))
	}
	t.mu.Unlock()
	t.emitAll(events)
	return len(removed)
}

// compactLocked removes entries dead since before the retention
// horizon and returns their handles. Caller holds t.mu.
func (t *Table) compactLocked(now time.Time) []string {
	horizon := now.Add(-DefaultRetention)
	var removed []string
	for h, r := range t.resv {
		var deadSince time.Time
		switch {
		case r.Status == Cancelled:
			// Pre-compaction snapshots have no CancelledAt; their window
			// end is the only retirement time on record.
			deadSince = r.CancelledAt
			if deadSince.IsZero() || r.Window.End.Before(deadSince) {
				deadSince = r.Window.End
			}
		default:
			deadSince = r.Window.End
		}
		if deadSince.Before(horizon) {
			t.dropLocked(r)
			removed = append(removed, h)
		}
	}
	return removed
}

// Len reports the number of reservations currently held, dead or
// alive; compaction observability for tests and gauges.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.resv)
}

// Lookup returns a copy of the reservation for handle.
func (t *Table) Lookup(handle string) (Reservation, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.resv[handle]
	if !ok {
		return Reservation{}, false
	}
	return *r, true
}

// Covers reports whether handle may back a request user makes over w —
// the check behind Figure 6's HasValidCPUResv(RAR): the reservation is
// granted, was admitted for user, and its window holds all of w.
// Handles are sequential, not secrets, so the user check is what binds
// a handle to its holder.
func (t *Table) Covers(handle string, user identity.DN, w units.Window) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.resv[handle]
	return ok && r.Status == Granted && r.User == user &&
		!w.Start.Before(r.Window.Start) && !w.End.After(r.Window.End)
}

// All returns copies of all reservations still held, sorted by handle.
// Entries removed by compaction are not included.
func (t *Table) All() []Reservation {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Reservation, 0, len(t.resv))
	for _, r := range t.resv {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Handle < out[j].Handle })
	return out
}
