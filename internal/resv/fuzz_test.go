package resv

import (
	"bytes"
	"math"
	"testing"
	"time"

	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// restoreSeeds are table snapshots in the binary encoding: one that
// restores, and one for each thing RestoreTable validates past the
// decoder.
func restoreSeeds() map[string][]byte {
	hour := func(h string, bw units.Bandwidth, status Status) Reservation {
		return Reservation{Handle: h, User: "/O=Grid/CN=alice", SrcHost: "a", DstHost: "b", Bandwidth: bw, Window: win(0, 60), Status: status, Created: t0}
	}
	enc := func(resvs ...Reservation) []byte {
		s := snapshot{Name: "x", Capacity: 100 * units.Mbps, Seq: int64(len(resvs)), Reservations: resvs}
		return s.appendBinary(nil)
	}
	cancelled := hour("x-2", 80*units.Mbps, Cancelled)
	cancelled.CancelledAt = t0.Add(time.Minute)
	windowless := hour("x-1", units.Mbps, Granted)
	windowless.Window.End = windowless.Window.Start
	return map[string][]byte{
		"sound":            enc(hour("x-1", 80*units.Mbps, Granted), cancelled, hour("x-3", 20*units.Mbps, Granted)),
		"overcommitted":    enc(hour("x-1", 80*units.Mbps, Granted), hour("x-2", 80*units.Mbps, Granted)),
		"duplicate handle": enc(hour("x-1", units.Mbps, Granted), hour("x-1", units.Mbps, Granted)),
		"windowless":       enc(windowless),
		"no bandwidth":     enc(hour("x-1", 0, Granted)),
		"no handle":        enc(hour("", units.Mbps, Granted)),
	}
}

// FuzzRestoreTable: RestoreTable under ResetFrom is the only door a table
// snapshot comes through, at boot and on a replication follower. It never
// panics; what it accepts holds no handle twice and commits no more than
// the capacity at any instant, carries a ledger its map implies, and
// snapshots again to bytes that restore to the same table; what it
// refuses, ResetFrom refuses too and leaves the target table untouched.
func FuzzRestoreTable(f *testing.F) {
	for _, seed := range restoreSeeds() {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte{snapMagic, wire.Version})
	f.Add([]byte{snapMagic, wire.Version + 1})
	f.Add([]byte(`{"name":"x","capacity":100000000,"seq":0,"reservations":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		target, err := NewTable("target", 10*units.Mbps)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := target.Admit(AdmitRequest{Bandwidth: units.Mbps, Window: win(0, 10)}); err != nil {
			t.Fatal(err)
		}
		before := mustSnapshot(t, target)

		tbl, err := RestoreTable(data)
		if err != nil {
			if target.ResetFrom(data) == nil {
				t.Fatalf("ResetFrom installed a snapshot RestoreTable refuses: %v", err)
			}
			if !bytes.Equal(mustSnapshot(t, target), before) {
				t.Fatal("a refused snapshot changed the table it was to replace")
			}
			return
		}
		var s snapshot
		if err := s.decodeBinary(data); err != nil {
			t.Fatalf("RestoreTable accepted what the snapshot decoder refuses: %v", err)
		}
		handles := make(map[string]bool, len(s.Reservations))
		for i := range s.Reservations {
			r := &s.Reservations[i]
			if handles[r.Handle] {
				t.Fatalf("restored a snapshot holding handle %q twice", r.Handle)
			}
			handles[r.Handle] = true
			// The level at each start, summed the slow way. A snapshot whose
			// bandwidths do not sum in an int64 is outside what the ledger's
			// arithmetic, and so this property, states anything about.
			var level units.Bandwidth
			for j := range s.Reservations {
				q := &s.Reservations[j]
				if !counted(r) || !counted(q) || r.Window.Start.Before(q.Window.Start) || !r.Window.Start.Before(q.Window.End) {
					continue
				}
				if q.Bandwidth > math.MaxInt64-level {
					return
				}
				level += q.Bandwidth
			}
			if level > s.Capacity {
				t.Fatalf("restored a snapshot committing %v of %v at %v", level, s.Capacity, r.Window.Start)
			}
		}
		checkLedger(t, tbl)
		again := mustSnapshot(t, tbl)
		if got := mustSnapshot(t, mustRestore(t, again)); !bytes.Equal(got, again) {
			t.Fatalf("a restored table's snapshot restores to another table:\n first:  %x\n second: %x", again, got)
		}
		if err := target.ResetFrom(data); err != nil {
			t.Fatalf("ResetFrom refused a snapshot RestoreTable accepts: %v", err)
		}
		if got := mustSnapshot(t, target); !bytes.Equal(got, again) {
			t.Fatalf("ResetFrom installed another table than RestoreTable built:\n restored: %x\n reset:    %x", again, got)
		}
	})
}
