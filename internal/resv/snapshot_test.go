package resv

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"e2eqos/internal/journal"
	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// TestSnapshotDeterministic pins the byte-determinism contract:
// snapshotting the same state — whatever order the map iterates in —
// must yield identical bytes, including after a restore round trip.
// Crash-recovery tests compare snapshots byte-for-byte and rely on
// this.
func TestSnapshotDeterministic(t *testing.T) {
	clk := &fakeClock{now: t0}
	tab := newTable(t, 100*units.Mbps)
	tab.SetClock(clk.Now)
	for i := 0; i < 20; i++ {
		if _, err := tab.Admit(AdmitRequest{Bandwidth: units.Mbps, Window: win(i, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := tab.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := tab.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("snapshot of unchanged table varies between calls (iteration %d)", i)
		}
	}
	restored, err := RestoreTable(first)
	if err != nil {
		t.Fatal(err)
	}
	reSnap, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, reSnap) {
		t.Fatalf("restore round trip changed snapshot bytes:\n want: %s\n  got: %s", first, reSnap)
	}
}

// TestSnapshotRoundTripPreservesClockSensitiveState covers the clock
// edge: CancelledAt and Created stamps must survive the round trip
// exactly, and compaction on the restored table must retire entries on
// the same schedule as the original would have.
func TestSnapshotRoundTripPreservesClockSensitiveState(t *testing.T) {
	clk := &fakeClock{now: t0}
	tab := newTable(t, 100*units.Mbps)
	tab.SetClock(clk.Now)

	r1, err := tab.Admit(AdmitRequest{Bandwidth: 10 * units.Mbps, Window: win(0, 30)})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel 10 minutes in: CancelledAt = t0+10m even though the window
	// runs to t0+30m.
	clk.Set(t0.Add(10 * time.Minute))
	if err := tab.Cancel(r1.Handle); err != nil {
		t.Fatal(err)
	}

	data, err := tab.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTable(data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := restored.Lookup(r1.Handle)
	if !ok {
		t.Fatal("cancelled entry lost in round trip")
	}
	if !got.CancelledAt.Equal(t0.Add(10 * time.Minute)) {
		t.Errorf("CancelledAt = %v, want %v", got.CancelledAt, t0.Add(10*time.Minute))
	}
	if !got.Created.Equal(t0) {
		t.Errorf("Created = %v, want %v", got.Created, t0)
	}

	// Retirement schedule: dead since t0+10m (CancelledAt), default
	// retention 5m. Just short of t0+15m the entry must survive
	// compaction; just past it, it must go — on the restored table
	// exactly like the original.
	if n := restored.Compact(t0.Add(15*time.Minute - time.Second)); n != 0 {
		t.Errorf("compacted %d entries before the retention horizon", n)
	}
	if n := restored.Compact(t0.Add(15*time.Minute + time.Second)); n != 1 {
		t.Errorf("compacted %d entries after the retention horizon, want 1", n)
	}
}

// TestSnapshotRoundTripCancelledWithoutStamp covers the unstamped
// cancelled-entry edge: a snapshot may carry a cancelled entry with a
// zero CancelledAt, and restore + compaction must fall back to the
// window end as the retirement time instead of treating zero time as
// "dead since forever".
func TestSnapshotRoundTripCancelledWithoutStamp(t *testing.T) {
	start := time.Date(2001, 8, 7, 9, 0, 0, 0, time.UTC)
	unstamped := snapshot{Name: "net-old", Capacity: 100 * units.Mbps, Seq: 1, Reservations: []Reservation{{
		Handle: "net-old-1", Bandwidth: units.Mbps, Status: Cancelled,
		Window: units.Window{Start: start, End: start.Add(time.Hour)},
	}}}
	restored, err := RestoreTable(unstamped.appendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := restored.Lookup("net-old-1")
	if !ok || got.Status != Cancelled || !got.CancelledAt.IsZero() {
		t.Fatalf("restored unstamped entry = %+v ok=%v", got, ok)
	}
	// Window ends 10:00; default retention 5m. Within the grace period
	// the corpse stays; after it, it goes.
	end := time.Date(2001, 8, 7, 10, 0, 0, 0, time.UTC)
	if n := restored.Compact(end.Add(4 * time.Minute)); n != 0 {
		t.Errorf("unstamped cancelled entry compacted %d before window-end retention", n)
	}
	if n := restored.Compact(end.Add(6 * time.Minute)); n != 1 {
		t.Errorf("unstamped cancelled entry compacted %d after retention, want 1", n)
	}
}

// TestSnapshotRoundTripThroughReplayIsIdempotent covers the
// snapshot-overlap edge the journal's rotation protocol depends on:
// replaying records whose effects a snapshot already contains must
// change nothing.
func TestSnapshotRoundTripThroughReplayIsIdempotent(t *testing.T) {
	clk := &fakeClock{now: t0}
	tab := newTable(t, 100*units.Mbps)
	tab.SetClock(clk.Now)
	r1, err := tab.Admit(AdmitRequest{Bandwidth: 10 * units.Mbps, Window: win(0, 30)})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tab.Admit(AdmitRequest{Bandwidth: 5 * units.Mbps, Window: win(0, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Cancel(r2.Handle); err != nil {
		t.Fatal(err)
	}

	data, err := tab.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTable(data)
	if err != nil {
		t.Fatal(err)
	}
	// Re-apply the full mutation history as journal records on top of
	// the already-final snapshot.
	mk := func(op string, payload journal.BinaryRecord) journal.Record {
		return journal.Record{Op: op, Data: payload.AppendBinary(nil)}
	}
	recs := []journal.Record{
		mk(opAdmit, admitRec{Resv: mustLookup(t, tab, r1.Handle), Seq: 1}),
		mk(opAdmit, admitRec{Resv: mustLookup(t, tab, r2.Handle), Seq: 2}),
		mk(opCancel, cancelRec{Handle: r2.Handle, CancelledAt: mustLookup(t, tab, r2.Handle).CancelledAt}),
	}
	replayAll(t, restored, recs)
	got, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, got) {
		t.Fatalf("replay over snapshot changed state:\n want: %s\n  got: %s", data, got)
	}
}

func mustLookup(t *testing.T, tab *Table, handle string) Reservation {
	t.Helper()
	r, ok := tab.Lookup(handle)
	if !ok {
		t.Fatalf("handle %s missing", handle)
	}
	return r
}

// TestRestoreTableRefusesOtherFormats: a snapshot from before the binary
// codec (JSON) or from a later version is named as such, not decoded by
// some other path and not reported as plain corruption.
func TestRestoreTableRefusesOtherFormats(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	good, err := tab.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), good...)
	future[1]++
	for name, data := range map[string][]byte{
		"legacy JSON":    []byte(`{"name":"net-old","capacity":100000000,"seq":1,"reservations":[]}`),
		"future version": future,
		"empty":          nil,
	} {
		if _, err := RestoreTable(data); !errors.Is(err, wire.ErrUnsupportedFormat) {
			t.Errorf("%s: err = %v, want wire.ErrUnsupportedFormat", name, err)
		}
	}
}
