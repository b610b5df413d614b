package bb_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/journal"
	"e2eqos/internal/resv"
	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// grantedIn counts granted reservations in one domain's table.
func grantedIn(w *experiment.World, domain string) int {
	n := 0
	for _, r := range w.BBs[domain].Table().All() {
		if r.Status == resv.Granted {
			n++
		}
	}
	return n
}

// tableSnapshot grabs a domain's reservation-table snapshot bytes.
func tableSnapshot(t *testing.T, w *experiment.World, domain string) []byte {
	t.Helper()
	data, err := w.BBs[domain].Table().Snapshot()
	if err != nil {
		t.Fatalf("%s: snapshot: %v", domain, err)
	}
	return data
}

// TestCrashRecoveryFromJournal is the kill-and-recover regression: a
// granted end-to-end reservation, then the source and mid-path brokers
// die hard (journal abandoned mid-batch, outbound clients dropped) and
// are rebuilt from scratch off their journals. The rebuilt brokers
// must hold byte-identical reservation tables, the granted handles
// must still validate, and a retransmission of the original RAR must
// be answered from the recovered replay cache — same handle, no
// second admission anywhere on the chain.
func TestCrashRecoveryFromJournal(t *testing.T) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  3,
		CallTimeout: 2 * time.Second,
		StateDir:    t.TempDir(),
		FsyncPolicy: "always",
		EnableObs:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("baseline reserve: res=%+v err=%v", res, err)
	}
	if got, want := len(res.Approvals), len(w.Domains); got != want {
		t.Fatalf("grant carries %d approvals, want %d", got, want)
	}
	handles := make(map[string]string, len(res.Approvals))
	for _, a := range res.Approvals {
		handles[a.Domain] = a.Handle
	}

	crashed := []string{"Domain0", "Domain1"} // source and mid-path
	preCrash := make(map[string][]byte, len(crashed))
	for _, d := range crashed {
		preCrash[d] = tableSnapshot(t, w, d)
	}

	// Kill them the hard way and rebuild each from its journal alone:
	// the replacement broker is a fresh bb.New, so any state it holds
	// can only have come off disk.
	for _, d := range crashed {
		if err := w.CrashDomain(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range crashed {
		if err := w.RestartDomainFromJournal(d); err != nil {
			t.Fatal(err)
		}
	}

	for _, d := range crashed {
		if got := tableSnapshot(t, w, d); !bytes.Equal(preCrash[d], got) {
			t.Errorf("%s: recovered table differs from pre-crash state\n want: %s\n  got: %s",
				d, preCrash[d], got)
		}
		if n := w.Metrics[d].Snapshot()["bb_recovered_records_total"]; n < 1 {
			t.Errorf("%s: bb_recovered_records_total = %v, want >= 1", d, n)
		}
	}
	// The grant must have survived: every domain's handle still
	// is still granted.
	for _, d := range w.Domains {
		if r, ok := w.BBs[d].Table().Lookup(handles[d]); !ok || r.Status != resv.Granted {
			t.Errorf("%s: handle %s no longer valid after recovery", d, handles[d])
		}
	}

	// Retransmit the original RAR (same RARID). The user's pooled
	// connection died with the broker, so drop it and redial; the
	// recovered source broker must answer from its replayed RAR cache
	// with the original grant, not run admission again.
	u.Close()
	res2, err := u.ReserveE2E(spec)
	if err != nil || !res2.Granted {
		t.Fatalf("retransmitted reserve after recovery: res=%+v err=%v", res2, err)
	}
	if res2.Handle != res.Handle {
		t.Errorf("retransmission handle %q, want original %q", res2.Handle, res.Handle)
	}
	if err := w.VerifyApprovals(res2); err != nil {
		t.Fatalf("approval signature check on cached outcome: %v", err)
	}
	for _, d := range w.Domains {
		if n := grantedIn(w, d); n != 1 {
			t.Errorf("%s: %d granted reservations after retransmission, want exactly 1", d, n)
		}
	}
	// And the retransmission must not have journaled a second
	// admission either: the table state is still byte-identical.
	for _, d := range crashed {
		if got := tableSnapshot(t, w, d); !bytes.Equal(preCrash[d], got) {
			t.Errorf("%s: table changed after retransmitted RAR", d)
		}
	}
}

// TestGracefulRestartFlushesBatchJournal covers the other durability
// path: with the default group-commit fsync policy, a graceful stop
// (Close flushes the journal) followed by a rebuild from the journal
// must also reproduce the table exactly — the batch buffer may not
// lose records on clean shutdown.
func TestGracefulRestartFlushesBatchJournal(t *testing.T) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  2,
		CallTimeout: 2 * time.Second,
		StateDir:    t.TempDir(),
		FsyncPolicy: "batch",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{
		DestDomain: w.DestDomain(), Bandwidth: 5 * units.Mbps,
	}))
	if err != nil || !res.Granted {
		t.Fatalf("baseline reserve: res=%+v err=%v", res, err)
	}
	want := tableSnapshot(t, w, "Domain0")

	// Stop cleanly; RestartDomainFromJournal closes the old broker
	// (flushing the batched journal) before rebuilding.
	if err := w.StopDomain("Domain0"); err != nil {
		t.Fatal(err)
	}
	if err := w.RestartDomainFromJournal("Domain0"); err != nil {
		t.Fatal(err)
	}
	if got := tableSnapshot(t, w, "Domain0"); !bytes.Equal(want, got) {
		t.Errorf("restarted table differs after graceful stop\n want: %s\n  got: %s", want, got)
	}
	if n := grantedIn(w, "Domain0"); n != 1 {
		t.Errorf("%d granted reservations after restart, want 1", n)
	}
}

// TestRestartRefusesStateOfAnotherFormat: a state directory left by a
// build from before the binary codec — a JSON snapshot, JSON records in
// whole CRC-valid frames — is neither migrated nor mistaken for a torn
// tail and dropped: the broker refuses to start, names the reason, and
// leaves both files exactly as they were.
func TestRestartRefusesStateOfAnotherFormat(t *testing.T) {
	legacyRecord := []byte(`{"op":"resv.admit","data":{"resv":{"Handle":"net-Domain0-1","Bandwidth":10000000},"seq":1}}`)
	frame := make([]byte, 8, 8+len(legacyRecord))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(legacyRecord)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(legacyRecord, crc32.MakeTable(crc32.Castagnoli)))
	frame = append(frame, legacyRecord...)

	for name, files := range map[string]map[string][]byte{
		"JSON snapshot": {"snapshot.json": []byte(`{"table":{"name":"net-Domain0","capacity":100000000,"seq":0,"reservations":[]},"epoch":3}`)},
		"JSON record":   {"wal.log": frame},
	} {
		t.Run(name, func(t *testing.T) {
			state := t.TempDir()
			w, err := experiment.BuildWorld(experiment.WorldConfig{NumDomains: 1, StateDir: state, FsyncPolicy: "always"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Close)
			if err := w.CrashDomain("Domain0"); err != nil {
				t.Fatal(err)
			}
			for file, data := range files {
				if err := os.WriteFile(filepath.Join(state, "Domain0", file), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.RestartDomainFromJournal("Domain0"); !errors.Is(err, wire.ErrUnsupportedFormat) {
				t.Fatalf("restart: err = %v, want wire.ErrUnsupportedFormat", err)
			}
			for file, data := range files {
				if now, err := os.ReadFile(filepath.Join(state, "Domain0", file)); err != nil || !bytes.Equal(now, data) {
					t.Errorf("%s changed under the refused restart (%v): %d bytes, was %d", file, err, len(now), len(data))
				}
			}
		})
	}
}

// TestRestartRefusesWithoutItsCheckpoint: the post-recovery rotation is
// what makes the boot fence durable, so a broker that cannot write it
// does not start; one that can starts from the same state.
func TestRestartRefusesWithoutItsCheckpoint(t *testing.T) {
	state := t.TempDir()
	w, err := experiment.BuildWorld(experiment.WorldConfig{NumDomains: 2, StateDir: state, FsyncPolicy: "always"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	if res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})); err != nil || !res.Granted {
		t.Fatalf("reserve: res=%+v err=%v", res, err)
	}
	src := w.SourceDomain()
	if err := w.CrashDomain(src); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory where the snapshot's temporary file goes.
	blocker := filepath.Join(state, src, "snapshot.json.tmp")
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.RestartDomainFromJournal(src); err == nil || !strings.Contains(err.Error(), "post-recovery checkpoint") {
		t.Fatalf("restart without a writable checkpoint: err = %v, want a post-recovery checkpoint error", err)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	if err := w.RestartDomainFromJournal(src); err != nil {
		t.Fatal(err)
	}
	if n := grantedIn(w, src); n != 1 {
		t.Errorf("restarted %s holds %d granted reservations, want 1", src, n)
	}
}

// TestRestartRefusesUnknownBrokerOps: a journal record in the broker's
// own vocabulary that this build does not know — bb.tunnel_alloc and
// bb.tunnel_release, which older builds wrote for every single sub-flow
// op, resv.modify, a table record no broker wrote, a saga op outside
// step, comp and end, or an op from a later build — stops recovery with
// an error naming it. Skipping it would bring the broker up with a
// tunnel missing the sub-flows those records admitted, a reservation at
// the wrong size, or a committed saga presumed aborted.
func TestRestartRefusesUnknownBrokerOps(t *testing.T) {
	for _, op := range []string{"bb.tunnel_alloc", "bb.tunnel_release", "resv.modify", "saga.bogus", "bb.from_a_later_build"} {
		t.Run(op, func(t *testing.T) {
			state := t.TempDir()
			w, err := experiment.BuildWorld(experiment.WorldConfig{NumDomains: 1, StateDir: state, FsyncPolicy: "always"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Close)
			if err := w.CrashDomain("Domain0"); err != nil {
				t.Fatal(err)
			}
			// rar_id, epoch, and the op nested: what the retired records held.
			payload := wire.AppendInt(wire.AppendString(nil, 1, "RAR-T"), 2, 1)
			payload = wire.AppendBytes(payload, 3, wire.AppendString(wire.AppendString(nil, 1, "alloc"), 2, "sf-1"))
			frame, err := journal.EncodeRecord(op, journal.RawBinary(payload))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(state, "Domain0", "wal.log"), frame, 0o644); err != nil {
				t.Fatal(err)
			}
			// The broker's words for its own ops, the table's for its.
			err = w.RestartDomainFromJournal("Domain0")
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown journal op %q", op)) &&
				!strings.Contains(err.Error(), fmt.Sprintf("unknown record op %q", op)) {
				t.Fatalf("restart: err = %v, want one saying unknown ... op %q", err, op)
			}
		})
	}
}

// TestRestartRefusesBatchIDState: state written before batches were
// numbered by their sender holds replay entries keyed by batch id, in a
// bb.tunnel_batch record (field 3) or in a snapshot (field 4). Neither
// has a sender's window to go into, so each stops recovery by name
// rather than bringing the tunnel up without its replay entries.
func TestRestartRefusesBatchIDState(t *testing.T) {
	entry := wire.AppendString(wire.AppendInt(wire.AppendString(nil, 1, "RAR-T"), 2, 1), 3, "B-0123456789abcdef")
	record, err := journal.EncodeRecord("bb.tunnel_batch", journal.RawBinary(entry))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := wire.AppendBytes([]byte{0xB3, 0x01}, 4, entry)
	for _, row := range []struct {
		file string
		data []byte
	}{{"wal.log", record}, {"snapshot.json", snapshot}} {
		t.Run(row.file, func(t *testing.T) {
			state := t.TempDir()
			w, err := experiment.BuildWorld(experiment.WorldConfig{NumDomains: 1, StateDir: state, FsyncPolicy: "always"})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(w.Close)
			if err := w.CrashDomain("Domain0"); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(state, "Domain0", row.file), row.data, 0o644); err != nil {
				t.Fatal(err)
			}
			err = w.RestartDomainFromJournal("Domain0")
			if err == nil || !strings.Contains(err.Error(), "batch replay entries keyed by batch id") {
				t.Fatalf("restart: err = %v, want one naming replay entries keyed by batch id", err)
			}
		})
	}
}
