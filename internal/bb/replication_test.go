package bb_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/experiment"
	"e2eqos/internal/obs"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// waitReplicated blocks until every live follower of domain has
// applied (and re-journaled) everything the current leader holds and
// holds the leader's state. Quiesce only — callers stop mutating first.
// The sequence test alone is not enough after a failover: sequences are
// per incarnation, so until a follower installs the new leader's
// snapshot its AppliedSeq still counts in the dead leader's numbering
// and can pass the comparison by accident.
func waitReplicated(t *testing.T, w *experiment.World, domain string, live []int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		leader := w.LeaderOf(domain)
		target := w.ReplicaBB(domain, leader).ReplicationStatus().JournalSeq
		want := replicaDigest(t, w, domain, leader)
		caught := true
		for _, i := range live {
			if i == leader {
				continue
			}
			if w.ReplicaBB(domain, i).ReplicationStatus().AppliedSeq < target ||
				!bytes.Equal(replicaDigest(t, w, domain, i), want) {
				caught = false
				break
			}
		}
		if caught {
			return
		}
		if time.Now().After(deadline) {
			for _, i := range live {
				t.Logf("replica %d: %+v", i, w.ReplicaBB(domain, i).ReplicationStatus())
			}
			t.Fatalf("%s: followers never caught up to leader seq %d", domain, target)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// replicaDigest serialises one replica's full durable state in the
// canonical snapshot encoding.
func replicaDigest(t *testing.T, w *experiment.World, domain string, i int) []byte {
	t.Helper()
	d, err := w.ReplicaBB(domain, i).StateDigest()
	if err != nil {
		t.Fatalf("%s replica %d: digest: %v", domain, i, err)
	}
	return d
}

// requireDigestsEqual diffs replica state byte-for-byte.
func requireDigestsEqual(t *testing.T, w *experiment.World, domain string, ids []int) {
	t.Helper()
	base := replicaDigest(t, w, domain, ids[0])
	for _, i := range ids[1:] {
		if got := replicaDigest(t, w, domain, i); !bytes.Equal(base, got) {
			t.Fatalf("%s: replica %d state diverged from replica %d\n r%d: %s\n r%d: %s",
				domain, i, ids[0], ids[0], base, i, got)
		}
	}
}

// TestReplicationFollowersConverge: a healthy 3-replica group under
// mixed load (grants, a cancel) converges — every follower's applied
// stream catches the leader's journal and all three replicas hold
// byte-identical state.
func TestReplicationFollowersConverge(t *testing.T) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  2,
		Replicas:    3,
		StateDir:    t.TempDir(),
		FsyncPolicy: "always",
		CallTimeout: 2 * time.Second,
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
	// The load below must reach the followers as streamed records, not
	// inside the snapshot a late joiner starts from.
	for _, d := range w.Domains {
		for i := 1; i < 3; i++ {
			eventually(t, fmt.Sprintf("%s replica %d joins the stream", d, i), func() bool {
				return replMetric(w, d, i, "bb_repl_snapshots_installed_total") >= 1
			})
		}
	}

	var cancelID string
	for i := 0; i < 5; i++ {
		spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 5 * units.Mbps})
		res, err := u.ReserveE2E(spec)
		if err != nil || !res.Granted {
			t.Fatalf("reserve %d: res=%+v err=%v", i, res, err)
		}
		cancelID = spec.RARID
	}
	if err := u.Cancel(w.SourceDomain(), cancelID); err != nil {
		t.Fatalf("cancel: %v", err)
	}

	all := []int{0, 1, 2}
	for _, d := range w.Domains {
		waitReplicated(t, w, d, all)
		requireDigestsEqual(t, w, d, all)
		for _, i := range all[1:] {
			st := w.ReplicaBB(d, i).ReplicationStatus()
			if !st.Replicated || st.Leader || st.LeaderID != 0 {
				t.Errorf("%s replica %d: unexpected status %+v", d, i, st)
			}
			if snap := w.ReplicaBB(d, i).MetricsRegistry().Snapshot(); snap["bb_repl_records_applied_total"] < 1 {
				t.Errorf("%s replica %d: no records applied: %v", d, i, snap["bb_repl_records_applied_total"])
			}
		}
	}
}

// TestReplicatedFailoverPreservesGrants is the randomized failover
// property: under a random amount of granted load, the source
// domain's leader dies the hard way (buffered batch-fsync records
// lost, connections dropped) and a follower is promoted. Every grant
// a caller ever saw must survive — retransmitting each original RAR
// is answered from the promoted follower's replay cache with the
// identical handle and no second admission — new admissions must
// succeed, and the survivors' state must converge byte-for-byte.
func TestReplicatedFailoverPreservesGrants(t *testing.T) {
	rng := rand.New(rand.NewSource(0xE2E05))
	for round := 0; round < 3; round++ {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			eventsDir := t.TempDir()
			w, err := experiment.BuildWorld(experiment.WorldConfig{
				NumDomains:  2,
				Replicas:    3,
				StateDir:    t.TempDir(),
				FsyncPolicy: "batch", // buffered records die with the leader
				CallTimeout: 2 * time.Second,
				EnableObs:   true,
				EventsDir:   eventsDir,
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
			src := w.SourceDomain()

			// Random load: the leader dies at a different journal
			// offset every round.
			type grant struct {
				spec   *core.Spec
				handle string
			}
			nLoad := 1 + rng.Intn(6)
			grants := make([]grant, 0, nLoad)
			for i := 0; i < nLoad; i++ {
				spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 2 * units.Mbps})
				res, err := u.ReserveE2E(spec)
				if err != nil || !res.Granted {
					t.Fatalf("load reserve %d: res=%+v err=%v", i, res, err)
				}
				grants = append(grants, grant{spec: spec, handle: res.Handle})
			}
			grantedBefore := grantedIn(w, src)

			killed, err := w.KillLeader(src)
			if err != nil {
				t.Fatal(err)
			}
			promoted, err := w.PromoteAny(src)
			if err != nil {
				t.Fatal(err)
			}
			if promoted == killed {
				t.Fatalf("promoted the dead leader %d", killed)
			}
			u.Close() // the user's pooled connection died with the leader

			// Every grant the user ever saw was commit-gated: the
			// promoted follower must hold it. Retransmissions hit its
			// replay cache — same handle, no second admission.
			for i, g := range grants {
				res, err := u.ReserveE2E(g.spec)
				if err != nil || !res.Granted {
					t.Fatalf("retransmit %d after failover: res=%+v err=%v", i, res, err)
				}
				if res.Handle != g.handle {
					t.Errorf("retransmit %d: handle %q, want original %q", i, res.Handle, g.handle)
				}
			}
			if got := grantedIn(w, src); got != grantedBefore {
				t.Errorf("granted reservations %d after retransmits, want %d (no double admission)", got, grantedBefore)
			}

			// The promoted leader serves new admissions.
			fresh := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 3 * units.Mbps})
			if res, err := u.ReserveE2E(fresh); err != nil || !res.Granted {
				t.Fatalf("fresh reserve after failover: res=%+v err=%v", res, err)
			}

			// Survivors converge to byte-identical state.
			var live []int
			for i := 0; i < 3; i++ {
				if i != killed {
					live = append(live, i)
				}
			}
			waitReplicated(t, w, src, live)
			requireDigestsEqual(t, w, src, live)

			st := w.ReplicaBB(src, promoted).ReplicationStatus()
			if !st.Leader || st.Term < 2 {
				t.Errorf("promoted replica status %+v, want leader at term >= 2", st)
			}
			if snap := w.ReplicaBB(src, promoted).MetricsRegistry().Snapshot(); snap["bb_repl_elections_total"] != 1 {
				t.Errorf("bb_repl_elections_total = %v, want 1", snap["bb_repl_elections_total"])
			}
			// The election is force-recorded in the flight recorder.
			var sawFailover bool
			dir := filepath.Join(eventsDir, src, fmt.Sprintf("r%d", promoted))
			if err := obs.ReadEvents(dir, func(ev *obs.Event) bool {
				if ev.Kind == obs.EventFailover {
					sawFailover = true
					return false
				}
				return true
			}); err != nil {
				t.Fatalf("reading promoted replica's events: %v", err)
			}
			if !sawFailover {
				t.Error("no failover event recorded by the promoted replica")
			}
		})
	}
}

// TestReplicatedFailoverPreservesTunnelBatches: the tunnel sub-flow
// state and the batch replay cache survive failover — a retransmitted
// batch is answered with its original per-op results and the endpoint
// allocation is unchanged; new batches apply on the promoted leader. The
// owner's low-water survives too: the followers hold the leader's state
// after its retirements, and on the promoted leader an acknowledged
// batch is still stale.
func TestReplicatedFailoverPreservesTunnelBatches(t *testing.T) {
	state := t.TempDir()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  2,
		Replicas:    3,
		Capacity:    1000 * units.Mbps,
		StateDir:    state,
		FsyncPolicy: "batch",
		CallTimeout: 2 * time.Second,
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
	src := w.SourceDomain()

	spec := u.NewSpec(experiment.SpecOptions{
		DestDomain: w.DestDomain(), Bandwidth: 100 * units.Mbps, Tunnel: true,
	})
	if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("tunnel establishment: res=%+v err=%v", res, err)
	}
	// Batches 1 and 2 take a sub-flow and give it back; batch 3, the one
	// retransmitted below, acknowledges them.
	pre := func(seq int64, op signalling.TunnelOp) *signalling.TunnelBatchPayload {
		return &signalling.TunnelBatchPayload{TunnelRARID: spec.RARID, Seq: seq, User: u.DN(), Ops: []signalling.TunnelOp{op}}
	}
	acked := []*signalling.TunnelBatchPayload{
		pre(1, signalling.TunnelOp{Action: signalling.OpAlloc, SubFlowID: "f0", Bandwidth: int64(units.Mbps)}),
		pre(2, signalling.TunnelOp{Action: signalling.OpRelease, SubFlowID: "f0"}),
	}
	payload := &signalling.TunnelBatchPayload{
		TunnelRARID: spec.RARID, Seq: 3, Acked: 2, User: u.DN(),
		Ops: []signalling.TunnelOp{
			{Action: signalling.OpAlloc, SubFlowID: "f1", Bandwidth: int64(40 * units.Mbps)},
			{Action: signalling.OpAlloc, SubFlowID: "f2", Bandwidth: int64(30 * units.Mbps)},
		},
	}
	for _, p := range append(acked, payload) {
		if res, err := u.TunnelBatch(src, p); err != nil || !res.Granted {
			t.Fatalf("batch %d: res=%+v err=%v", p.Seq, res, err)
		}
	}
	all := []int{0, 1, 2}
	waitReplicated(t, w, src, all)
	requireDigestsEqual(t, w, src, all)

	killed, err := w.KillLeader(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.PromoteAny(src); err != nil {
		t.Fatal(err)
	}
	u.Close()

	// The promoted leader holds the endpoint exactly as allocated.
	ep, ok := w.BBs[src].Tunnel(spec.RARID)
	if !ok {
		t.Fatal("tunnel endpoint lost in failover")
	}
	if ep.Used() != 70*units.Mbps || ep.Len() != 2 {
		t.Fatalf("endpoint after failover: used=%v len=%d, want 70Mb/s over 2", ep.Used(), ep.Len())
	}
	// Retransmitting the settled batch replays its recorded outcome —
	// no re-execution, allocation unchanged.
	res2, err := u.TunnelBatch(src, payload)
	if err != nil || !res2.Granted {
		t.Fatalf("batch retransmit: res=%+v err=%v", res2, err)
	}
	if ep.Used() != 70*units.Mbps || ep.Len() != 2 {
		t.Fatalf("retransmit changed the endpoint: used=%v len=%d", ep.Used(), ep.Len())
	}
	if low := w.BBs[src].LowWater(spec.RARID, u.DN()); low != 2 {
		t.Errorf("the owner's low-water on the promoted leader is %d, want 2", low)
	}
	for _, p := range acked {
		if res, err := u.TunnelBatch(src, p); err != nil || !strings.Contains(res.Reason, "stale batch") {
			t.Errorf("acknowledged batch %d after failover: res=%+v err=%v, want a stale batch refusal", p.Seq, res, err)
		}
	}
	if ep.Used() != 70*units.Mbps || ep.Len() != 2 {
		t.Fatalf("stale batches changed the endpoint: used=%v len=%d", ep.Used(), ep.Len())
	}
	// A genuinely new batch still applies.
	res3, err := u.TunnelBatch(src, &signalling.TunnelBatchPayload{
		TunnelRARID: spec.RARID, Seq: 4, Acked: 3, User: u.DN(),
		Ops: []signalling.TunnelOp{{Action: signalling.OpRelease, SubFlowID: "f2"}},
	})
	if err != nil || !res3.Granted {
		t.Fatalf("new batch after failover: res=%+v err=%v", res3, err)
	}
	if ep.Used() != 40*units.Mbps || ep.Len() != 1 {
		t.Fatalf("release after failover: used=%v len=%d, want 40Mb/s over 1", ep.Used(), ep.Len())
	}

	var live []int
	for i := 0; i < 3; i++ {
		if i != killed {
			live = append(live, i)
		}
	}
	waitReplicated(t, w, src, live)
	requireDigestsEqual(t, w, src, live)
	checkJournalOrder(t, w, state)
}

// TestAutomaticFailoverElectsOneSurvivor: with ElectionTimeout armed and
// nobody calling Promote, the followers of a killed leader elect one of
// themselves at a higher term on their own, and the other survivor
// follows the winner to byte-identical state.
func TestAutomaticFailoverElectsOneSurvivor(t *testing.T) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:      2,
		Replicas:        3,
		StateDir:        t.TempDir(),
		FsyncPolicy:     "always",
		CallTimeout:     2 * time.Second,
		ElectionTimeout: 100 * time.Millisecond,
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
	src := w.SourceDomain()
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 5 * units.Mbps})
	if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("reserve: res=%+v err=%v", res, err)
	}
	waitReplicated(t, w, src, []int{0, 1, 2})
	before := w.ReplicaBB(src, 0).ReplicationStatus()
	if !before.Leader {
		t.Fatalf("replica 0 lost its leadership with nothing killed: %+v", before)
	}
	killed, err := w.KillLeader(src)
	if err != nil {
		t.Fatal(err)
	}
	var survivors []int
	for i := 0; i < 3; i++ {
		if i != killed {
			survivors = append(survivors, i)
		}
	}
	eventually(t, "one survivor wins an election and the other follows it to its state", func() bool {
		var leaders, followers []int
		for _, i := range survivors {
			if st := w.ReplicaBB(src, i).ReplicationStatus(); st.Leader && st.Term > before.Term {
				leaders = append(leaders, i)
			} else {
				followers = append(followers, i)
			}
		}
		if len(leaders) != 1 || w.ReplicaBB(src, followers[0]).ReplicationStatus().LeaderID != leaders[0] {
			return false
		}
		want, err1 := w.ReplicaBB(src, leaders[0]).StateDigest()
		got, err2 := w.ReplicaBB(src, followers[0]).StateDigest()
		return err1 == nil && err2 == nil && bytes.Equal(got, want)
	})
}
