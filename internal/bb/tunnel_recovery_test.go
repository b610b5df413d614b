package bb_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// tunnelSnapshot grabs a domain's endpoint snapshot bytes for the
// byte-identical recovery assertions (EndpointSnapshot is sorted and
// value-typed, so equal state marshals equally).
func tunnelSnapshot(t *testing.T, w *experiment.World, domain, rarID string) []byte {
	t.Helper()
	ep, ok := w.BBs[domain].Tunnel(rarID)
	if !ok {
		t.Fatalf("%s: no tunnel %s", domain, rarID)
	}
	data, err := json.Marshal(ep.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTunnelCrashRecoveryFromJournal is the sub-flow analogue of the
// reservation-table kill-and-recover regression: establish a tunnel,
// mutate it through both the batched source API and a direct
// destination batch, crash the destination broker hard, rebuild it
// from its journal alone, and require (a) a byte-identical recovered
// endpoint, (b) that a retransmitted batch is answered from the
// recovered replay cache without double admission, and (c) that each
// sender's low-water survived: an acknowledged batch is still stale.
func TestTunnelCrashRecoveryFromJournal(t *testing.T) {
	state := t.TempDir()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  3,
		Capacity:    1000 * units.Mbps,
		CallTimeout: 2 * time.Second,
		StateDir:    state,
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

	spec := u.NewSpec(experiment.SpecOptions{
		DestDomain: w.DestDomain(), Bandwidth: 100 * units.Mbps, Tunnel: true,
	})
	if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("tunnel establishment: res=%+v err=%v", res, err)
	}
	src, dest := w.SourceDomain(), w.DestDomain()

	// Populate the tunnel through the batched two-endpoint path.
	var ops []signalling.TunnelOp
	for i := 0; i < 8; i++ {
		ops = append(ops, signalling.TunnelOp{
			Action: signalling.OpAlloc, SubFlowID: fmt.Sprintf("sub-%d", i), Bandwidth: int64(5 * units.Mbps),
		})
	}
	results, err := w.BBs[src].TunnelBatch(spec.RARID, ops, u.DN())
	if err != nil {
		t.Fatalf("source batch: %v", err)
	}
	for _, r := range results {
		if !r.Granted {
			t.Fatalf("source batch denied %s: %s", r.SubFlowID, r.Reason)
		}
	}

	// One more batch sent straight to the destination with a pinned Seq
	// — the retransmission vehicle. It churns existing flows (release +
	// re-style alloc) so replay ordering matters, and acknowledges the
	// owner's batches below it.
	batch := &signalling.TunnelBatchPayload{
		TunnelRARID: spec.RARID,
		Seq:         5,
		Acked:       4,
		User:        u.DN(),
		Ops: []signalling.TunnelOp{
			{Action: signalling.OpRelease, SubFlowID: "sub-3"},
			{Action: signalling.OpAlloc, SubFlowID: "sub-9", Bandwidth: int64(20 * units.Mbps)},
			{Action: signalling.OpRelease, SubFlowID: "sub-5"},
		},
	}
	res1, err := userBatch(w, u, dest, batch)
	if err != nil || !res1.Granted {
		t.Fatalf("direct destination batch: res=%+v err=%v", res1, err)
	}

	epPre, ok := w.BBs[dest].Tunnel(spec.RARID)
	if !ok {
		t.Fatal("destination lost the tunnel endpoint")
	}
	usedPre := epPre.Used()
	want := tunnelSnapshot(t, w, dest, spec.RARID)
	srcDN := w.BBs[src].DN()
	// windows describes the destination's replay cache: each sender's
	// low-water and the batches it holds.
	windows := func() string {
		b := w.BBs[dest]
		out := fmt.Sprintf("source %d, owner %d,", b.LowWater(spec.RARID, srcDN), b.LowWater(spec.RARID, u.DN()))
		for _, e := range b.ReplayEntries() {
			out += fmt.Sprintf(" %s#%d granted=%t", e.Sender, e.Seq, e.Outcome.Result.Granted)
		}
		return out
	}
	wantWindows := windows()
	// The source's one batch bore its epoch counter's value and
	// acknowledged everything below it.
	if want := fmt.Sprintf("source %d, owner 4,", w.BBs[src].Epoch()-1); !strings.HasPrefix(wantWindows, want) {
		t.Fatalf("before the crash the destination's windows read %s, want %s", wantWindows, want)
	}

	// Kill the destination the hard way and rebuild it from disk.
	if err := w.CrashDomain(dest); err != nil {
		t.Fatal(err)
	}
	if err := w.RestartDomainFromJournal(dest); err != nil {
		t.Fatal(err)
	}

	got := tunnelSnapshot(t, w, dest, spec.RARID)
	if !bytes.Equal(want, got) {
		t.Errorf("recovered tunnel endpoint differs from pre-crash state\n want: %s\n  got: %s", want, got)
	}
	if got := windows(); got != wantWindows {
		t.Errorf("recovered replay windows differ from pre-crash state\n want: %s\n  got: %s", wantWindows, got)
	}
	// Recovery checkpointed: a second crash recovers from the snapshot.
	if err := w.CrashDomain(dest); err != nil {
		t.Fatal(err)
	}
	if err := w.RestartDomainFromJournal(dest); err != nil {
		t.Fatal(err)
	}
	if got := windows(); got != wantWindows {
		t.Errorf("replay windows recovered from the snapshot differ from pre-crash state\n want: %s\n  got: %s", wantWindows, got)
	}

	// Retransmit the settled batch verbatim. The user's pooled
	// connection died with the broker; drop it and redial. The rebuilt
	// broker must answer from its recovered replay cache — identical
	// per-op results, not a single op re-applied.
	u.Close()
	res2, err := userBatch(w, u, dest, batch)
	if err != nil {
		t.Fatalf("retransmitted batch after recovery: %v", err)
	}
	r1, _ := json.Marshal(res1.BatchResults)
	r2, _ := json.Marshal(res2.BatchResults)
	if res2.Granted != res1.Granted || !bytes.Equal(r1, r2) {
		t.Errorf("retransmission results differ\n want: granted=%t %s\n  got: granted=%t %s",
			res1.Granted, r1, res2.Granted, r2)
	}
	epPost, ok := w.BBs[dest].Tunnel(spec.RARID)
	if !ok {
		t.Fatal("tunnel endpoint vanished after retransmission")
	}
	if epPost.Used() != usedPre {
		t.Errorf("retransmission changed the allocated total: %v, want %v", epPost.Used(), usedPre)
	}
	if got := tunnelSnapshot(t, w, dest, spec.RARID); !bytes.Equal(want, got) {
		t.Errorf("tunnel state changed after retransmitted batch")
	}
	if n := w.Metrics[dest].Snapshot()["bb_tunnel_batch_replays_total"]; n < 1 {
		t.Errorf("bb_tunnel_batch_replays_total = %v, want >= 1", n)
	}
	acked := *batch
	acked.Seq, acked.Acked = 4, 0
	if res, err := userBatch(w, u, dest, &acked); err != nil || !strings.Contains(res.Reason, "stale batch") {
		t.Errorf("an acknowledged batch after recovery: res=%+v err=%v, want a stale batch refusal", res, err)
	}

	// The source side keeps working against the recovered destination:
	// a fresh batch over the healed channel must apply at both ends.
	more := []signalling.TunnelOp{
		{Action: signalling.OpAlloc, SubFlowID: "post-crash", Bandwidth: int64(units.Mbps)},
	}
	results, err = w.BBs[src].TunnelBatch(spec.RARID, more, u.DN())
	if err != nil || results != nil {
		t.Fatalf("post-recovery batch: results=%+v err=%v, want it granted whole", results, err)
	}
	if _, ok := subFlow(epPost, "post-crash"); !ok {
		t.Error("post-recovery allocation missing at the destination")
	}
	checkJournalOrder(t, w, state)
}

// TestTunnelSourceRecoversFromJournal: the source journals one record
// for the halves it applied before a batch leaves and one more for the
// halves it undid, so a source killed after a partially denied batch
// (refusals by both ends, an alloc and a release undone) or after one
// that failed in transport (everything undone) recovers the endpoint
// byte for byte. A fully granted batch is one append at the source,
// whatever its size, as it is at the destination.
func TestTunnelSourceRecoversFromJournal(t *testing.T) {
	for _, row := range []struct {
		name      string
		failInNet bool
		holds     string // the source after the batch
	}{
		{"partially denied", false, "[first last lonely]"},
		{"transport failed", true, "[lonely]"},
	} {
		t.Run(row.name, func(t *testing.T) {
			state := t.TempDir()
			w, u, rarID := buildTunnelWorldWith(t, experiment.WorldConfig{
				NumDomains: 2, CallTimeout: 2 * time.Second, StateDir: state, FsyncPolicy: "always",
			}, 100*units.Mbps)
			desyncTunnel(t, w, u, rarID)
			src := w.SourceDomain()
			if row.failInNet {
				if err := w.StopDomain(w.DestDomain()); err != nil {
					t.Fatal(err)
				}
			}
			appends := w.Metrics[src].Snapshot()["bb_journal_appends_total"]
			if _, err := w.BBs[src].TunnelBatch(rarID, mixedBatch, u.DN()); (err != nil) != row.failInNet {
				t.Fatalf("batch: err=%v, want a transport failure: %t", err, row.failInNet)
			}
			if n := w.Metrics[src].Snapshot()["bb_journal_appends_total"] - appends; n != 2 {
				t.Errorf("the source appended %v records, want 2: the applied halves, the undone halves", n)
			}
			ep, _ := w.BBs[src].Tunnel(rarID)
			if got := fmt.Sprint(ep.SubFlows()); got != row.holds {
				t.Fatalf("source holds %s after the batch, want %s", got, row.holds)
			}
			want := tunnelSnapshot(t, w, src, rarID)
			if err := w.CrashDomain(src); err != nil {
				t.Fatal(err)
			}
			if err := w.RestartDomainFromJournal(src); err != nil {
				t.Fatal(err)
			}
			if got := tunnelSnapshot(t, w, src, rarID); !bytes.Equal(want, got) {
				t.Errorf("recovered source endpoint differs from pre-crash state\n want: %s\n  got: %s", want, got)
			}
			if n := len(w.BBs[src].ReplayEntries()); n != 0 {
				t.Errorf("the recovered source holds %d replay entries: its records carry no Seq", n)
			}
			checkJournalOrder(t, w, state)
		})
	}

	t.Run("one append per granted batch", func(t *testing.T) {
		state := t.TempDir()
		w, u, rarID := buildTunnelWorldWith(t, experiment.WorldConfig{
			NumDomains: 2, CallTimeout: 2 * time.Second, StateDir: state, FsyncPolicy: "never",
		}, 900*units.Mbps)
		ops := make([]signalling.TunnelOp, 256)
		for i := range ops {
			ops[i] = signalling.TunnelOp{Action: signalling.OpAlloc, SubFlowID: fmt.Sprintf("sub-%d", i), Bandwidth: int64(units.Mbps)}
		}
		for _, d := range w.Domains {
			defer func(before float64) {
				n := w.Metrics[d].Snapshot()["bb_journal_appends_total"] - before
				t.Logf("%s: %v journal appends for one granted batch of %d ops", d, n, len(ops))
				if n != 1 {
					t.Errorf("%s appended %v records for one granted batch, want 1", d, n)
				}
			}(w.Metrics[d].Snapshot()["bb_journal_appends_total"])
		}
		if results, err := w.BBs[w.SourceDomain()].TunnelBatch(rarID, ops, u.DN()); err != nil || results != nil {
			t.Fatalf("batch: results=%+v err=%v, want it granted whole", results, err)
		}
		checkJournalOrder(t, w, state)
	})
}

// TestSourceThatLostItsLastRecordsIsRefusedByName: a source whose
// journal lost the records of batches that had already left never mints
// their Seqs again, so nothing is left for the destination to refuse by
// name. Cutting the log back models the loss: the group-commit window
// under the batch policy, a power failure under never. The restarted
// source fences its epoch counter, which mints Seqs, one stride past
// what it recovered, so its new batches are fresh at the destination:
// each is granted and held at both ends, and none is refused as stale or
// as a reused Seq. (The lost batches' sub-flows stay at the destination
// only: the source's journal no longer knows them.)
func TestSourceThatLostItsLastRecordsIsRefusedByName(t *testing.T) {
	state := t.TempDir()
	w, u, rarID := buildTunnelWorldWith(t, experiment.WorldConfig{
		NumDomains: 2, CallTimeout: 2 * time.Second, StateDir: state, FsyncPolicy: "never",
	}, 100*units.Mbps)
	src, dst := w.SourceDomain(), w.DestDomain()
	alloc := func(id string) []signalling.TunnelOpResult {
		t.Helper()
		results, err := w.BBs[src].TunnelBatch(rarID, []signalling.TunnelOp{{Action: signalling.OpAlloc, SubFlowID: id, Bandwidth: int64(units.Mbps)}}, u.DN())
		if err != nil {
			t.Fatalf("alloc %s: %v", id, err)
		}
		return results
	}
	alloc("kept")
	wal := filepath.Join(state, src, "wal.log")
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"lost-1", "lost-2", "lost-3"} {
		alloc(id)
	}
	if err := w.CrashDomain(src); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, info.Size()); err != nil {
		t.Fatal(err)
	}
	if err := w.RestartDomainFromJournal(src); err != nil {
		t.Fatal(err)
	}
	if ep, _ := w.BBs[src].Tunnel(rarID); fmt.Sprint(ep.SubFlows()) != "[kept]" {
		t.Fatalf("the restarted source holds %v, want [kept]", ep.SubFlows())
	}

	epSrc, _ := w.BBs[src].Tunnel(rarID)
	epDst, _ := w.BBs[dst].Tunnel(rarID)
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("new-%d", i)
		results := alloc(id) // none when granted
		_, inSrc := subFlow(epSrc, id)
		_, inDst := subFlow(epDst, id)
		if results != nil || !inSrc || !inDst {
			t.Errorf("%s: results %+v, held at the source %t, at the destination %t; want granted and held at both", id, results, inSrc, inDst)
		}
	}
	if n := w.Metrics[dst].Snapshot()["bb_tunnel_batches_stale_total"]; n != 0 {
		t.Errorf("bb_tunnel_batches_stale_total = %v at the destination, want 0", n)
	}
	checkJournalOrder(t, w, state)
}

// TestReplicatedSourceFollowersHoldUndoneBatches: the source's two
// records per batch reach its followers like any other, so after a
// partially denied batch and one that failed in transport every replica
// of the source holds the leader's endpoint, and no replay entry.
func TestReplicatedSourceFollowersHoldUndoneBatches(t *testing.T) {
	state := t.TempDir()
	w, u, rarID := buildTunnelWorldWith(t, experiment.WorldConfig{
		NumDomains: 2, Replicas: 3, CallTimeout: 500 * time.Millisecond, StateDir: state, FsyncPolicy: "never",
	}, 100*units.Mbps)
	desyncTunnel(t, w, u, rarID)
	src := w.SourceDomain()
	if _, err := w.BBs[src].TunnelBatch(rarID, mixedBatch, u.DN()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.KillLeader(w.DestDomain()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.BBs[src].TunnelBatch(rarID, []signalling.TunnelOp{
		{Action: signalling.OpRelease, SubFlowID: "first"},
		{Action: signalling.OpAlloc, SubFlowID: "never", Bandwidth: int64(units.Mbps)},
	}, u.DN()); err == nil {
		t.Fatal("batch to a destination without a leader succeeded")
	}
	all := []int{0, 1, 2}
	waitReplicated(t, w, src, all)
	requireDigestsEqual(t, w, src, all)
	for _, i := range all {
		r := w.ReplicaBB(src, i)
		ep, ok := r.Tunnel(rarID)
		if !ok {
			t.Fatalf("replica %d: no tunnel endpoint", i)
		}
		if got := fmt.Sprint(ep.SubFlows(), ep.Used(), len(r.ReplayEntries())); got != "[first last lonely] 30Mb/s 0" {
			t.Errorf("replica %d holds %s (sub-flows, used, replay entries)", i, got)
		}
	}
	checkJournalOrder(t, w, state)
}

// TestTunnelGracefulRestartKeepsSubFlows covers the group-commit path:
// a graceful stop (journal flushed on Close) followed by a rebuild must
// reproduce the endpoint exactly, including sub-flows allocated and
// released one at a time (batches of one op).
func TestTunnelGracefulRestartKeepsSubFlows(t *testing.T) {
	state := t.TempDir()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  2,
		Capacity:    1000 * units.Mbps,
		CallTimeout: 2 * time.Second,
		StateDir:    state,
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

	spec := u.NewSpec(experiment.SpecOptions{
		DestDomain: w.DestDomain(), Bandwidth: 50 * units.Mbps, Tunnel: true,
	})
	if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("tunnel establishment: res=%+v err=%v", res, err)
	}
	src := w.BBs[w.SourceDomain()]
	for i := 0; i < 4; i++ {
		if err := src.AllocateTunnelFlow(spec.RARID, fmt.Sprintf("f-%d", i), 10*units.Mbps, u.DN()); err != nil {
			t.Fatalf("sub-flow %d: %v", i, err)
		}
	}
	if err := src.ReleaseTunnelFlow(spec.RARID, "f-2"); err != nil {
		t.Fatal(err)
	}
	want := tunnelSnapshot(t, w, w.DestDomain(), spec.RARID)

	if err := w.StopDomain(w.DestDomain()); err != nil {
		t.Fatal(err)
	}
	if err := w.RestartDomainFromJournal(w.DestDomain()); err != nil {
		t.Fatal(err)
	}
	if got := tunnelSnapshot(t, w, w.DestDomain(), spec.RARID); !bytes.Equal(want, got) {
		t.Errorf("restarted endpoint differs after graceful stop\n want: %s\n  got: %s", want, got)
	}
	ep, _ := w.BBs[w.DestDomain()].Tunnel(spec.RARID)
	if ep.Used() != 30*units.Mbps || ep.Len() != 3 {
		t.Errorf("recovered endpoint: used=%v len=%d, want 30Mb/s over 3 sub-flows", ep.Used(), ep.Len())
	}
	checkJournalOrder(t, w, state)
}
