package resv

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/units"
)

// reconstruct rebuilds a table from whatever a journal directory holds
// — the crash-recovery path, without a live journal.
func reconstruct(t *testing.T, dir, name string, capacity units.Bandwidth) *Table {
	t.Helper()
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	var tbl *Table
	if rec.Snapshot != nil {
		tbl, err = RestoreTable(rec.Snapshot)
		if err != nil {
			t.Fatalf("RestoreTable: %v", err)
		}
	} else {
		tbl, err = NewTable(name, capacity)
		if err != nil {
			t.Fatal(err)
		}
	}
	replayAll(t, tbl, rec.Records)
	return tbl
}

// replayAll applies a record tail to tbl, as boot recovery does.
func replayAll(t *testing.T, tbl *Table, recs []journal.Record) {
	t.Helper()
	for i, rec := range recs {
		if err := tbl.ApplyRecord(rec); err != nil {
			t.Fatalf("replaying record %d (%s): %v", i, rec.Op, err)
		}
	}
}

// TestJournalCrashReplayProperty drives a plain table and its
// journaled twin through the same seeded random mutation sequence —
// cut off at a random point per trial — then crashes the journal and
// asserts the table reconstructed from disk is byte-identical to the
// plain table's snapshot and that its admission ledger matches its
// map. Checkpoints, fsync policies, clock jumps,
// compaction sweeps and appended garbage all vary per trial.
func TestJournalCrashReplayProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20010807))
	policies := []journal.Policy{journal.FsyncBatch, journal.FsyncAlways, journal.FsyncNever}

	const trials = 25
	for trial := 0; trial < trials; trial++ {
		dir := t.TempDir()
		clk := &fakeClock{now: t0}
		capacity := units.Bandwidth(50+rng.Intn(100)) * units.Mbps

		plain, err := NewTable("net-prop", capacity)
		if err != nil {
			t.Fatal(err)
		}
		plain.SetClock(clk.Now)
		twin, err := NewTable("net-prop", capacity)
		if err != nil {
			t.Fatal(err)
		}
		twin.SetClock(clk.Now)

		j, rec, err := journal.Open(dir, journal.Options{
			Fsync:         policies[rng.Intn(len(policies))],
			BatchInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatalf("trial %d: Open: %v", trial, err)
		}
		if rec.Snapshot != nil || len(rec.Records) != 0 {
			t.Fatalf("trial %d: fresh dir not empty", trial)
		}
		AttachJournal(twin, j)

		// The random cut point: each trial stops the mutation stream at
		// a different place, so recovery is exercised against every
		// kind of tail (empty, admit-heavy, post-compact, mid-churn).
		nOps := 20 + rng.Intn(200)
		var handles []string
		for i := 0; i < nOps; i++ {
			switch rng.Intn(9) {
			case 0, 1, 2, 3, 4: // admit (sometimes over capacity: both must refuse)
				req := AdmitRequest{
					User:      identity.DN(fmt.Sprintf("/O=Grid/CN=user%d", rng.Intn(5))),
					SrcHost:   "a.example",
					DstHost:   "b.example",
					Bandwidth: units.Bandwidth(1+rng.Intn(80)) * units.Mbps,
					Window:    win(rng.Intn(600)-120, 1+rng.Intn(120)),
					Tunnel:    rng.Intn(8) == 0,
				}
				r1, err1 := plain.Admit(req)
				r2, err2 := twin.Admit(req)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("trial %d op %d: admit diverged: %v vs %v", trial, i, err1, err2)
				}
				if err1 == nil {
					if r1.Handle != r2.Handle {
						t.Fatalf("trial %d op %d: handles diverged: %s vs %s", trial, i, r1.Handle, r2.Handle)
					}
					handles = append(handles, r1.Handle)
				}
			case 5, 6: // cancel a random (possibly already-cancelled) handle
				if len(handles) == 0 {
					continue
				}
				h := handles[rng.Intn(len(handles))]
				err1 := plain.Cancel(h)
				err2 := twin.Cancel(h)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("trial %d op %d: cancel(%s) diverged: %v vs %v", trial, i, h, err1, err2)
				}
			case 7: // advance the shared clock (ages entries toward compaction)
				clk.Set(clk.Now().Add(time.Duration(rng.Intn(10)) * time.Minute))
			case 8: // explicit compact, or a journal checkpoint
				if rng.Intn(2) == 0 {
					now := clk.Now()
					n1 := plain.Compact(now)
					n2 := twin.Compact(now)
					if n1 != n2 {
						t.Fatalf("trial %d op %d: compact diverged: %d vs %d", trial, i, n1, n2)
					}
				} else if err := j.Rotate(twin.Snapshot); err != nil {
					t.Fatalf("trial %d op %d: checkpoint: %v", trial, i, err)
				}
			}
		}

		// Stop. Close so the batch buffer reaches the file — the loss
		// window of an unsynced batch is journal_test territory; here
		// the property is that what reached disk reconstructs exactly.
		if err := j.Close(); err != nil {
			t.Fatalf("trial %d: Close: %v", trial, err)
		}

		// Half the trials die mid-write: garbage lands after the last
		// good record and recovery must shrug it off.
		if rng.Intn(2) == 0 {
			f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			garbage := make([]byte, 1+rng.Intn(64))
			rng.Read(garbage)
			f.Write(garbage)
			f.Close()
		}

		rebuilt := reconstruct(t, dir, "net-prop", capacity)
		// Restore and replay write the map through the same mutators as
		// the live paths: the reconstructed ledger must be the one the
		// reconstructed map implies.
		checkLedger(t, rebuilt)
		checkLedger(t, plain)
		want, err := plain.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		got, err := rebuilt.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("trial %d (%d ops): reconstructed state differs\n want: %s\n  got: %s",
				trial, nOps, want, got)
		}
	}
}

// TestAutoSweepIsJournaled pins the subtle case: the
// compaction sweep piggybacked on Admit (every sweepEvery admissions)
// removes entries without any explicit Compact call, and the removal
// must still reach the journal or recovery resurrects corpses.
func TestAutoSweepIsJournaled(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{now: t0}
	capacity := 10000 * units.Mbps
	tbl, err := NewTable("net-sweep", capacity)
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetClock(clk.Now)
	j, _, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	AttachJournal(tbl, j)

	// One short-lived reservation, then age it far past retention.
	if _, err := tbl.Admit(AdmitRequest{Bandwidth: units.Mbps, Window: win(0, 1)}); err != nil {
		t.Fatal(err)
	}
	clk.Set(t0.Add(24 * time.Hour))
	// sweepEvery admissions trigger exactly one automatic sweep.
	for i := 0; i < sweepEvery; i++ {
		if _, err := tbl.Admit(AdmitRequest{Bandwidth: units.Mbps, Window: win(1500, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != sweepEvery {
		t.Fatalf("table holds %d entries, want %d (first entry swept)", tbl.Len(), sweepEvery)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rebuilt := reconstruct(t, dir, "net-sweep", capacity)
	want, _ := tbl.Snapshot()
	got, _ := rebuilt.Snapshot()
	if !bytes.Equal(want, got) {
		t.Fatalf("auto-sweep not journaled:\n want: %s\n  got: %s", want, got)
	}
}
