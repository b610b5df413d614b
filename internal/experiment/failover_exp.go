package experiment

import (
	"bytes"
	"fmt"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/resv"
	"e2eqos/internal/units"
)

// The failover demonstration's shape.
const (
	// failoverReplicas is the source domain's group size.
	failoverReplicas = 3
	// failoverLoad is how many end-to-end grants land before the kill.
	failoverLoad = 20
	// failoverCallTimeout bounds every signalling call.
	failoverCallTimeout = 2 * time.Second
)

// RunFailover builds a replicated two-domain world, lands a batch of
// commit-gated grants, kills the source domain's leader the hard way
// (buffered batch-fsync records die with it) and promotes a follower.
// The table reports what the paper's availability story needs: zero
// lost grants, every retransmission answered from the promoted
// follower's replay cache with the original handle, no double
// admissions, and byte-identical state across the survivors. stateDir
// roots the replicas' journals: the replication stream is the journal.
func RunFailover(stateDir string) (*Table, error) {
	w, err := BuildWorld(WorldConfig{
		NumDomains:  2,
		Replicas:    failoverReplicas,
		StateDir:    stateDir,
		FsyncPolicy: "batch",
		CallTimeout: failoverCallTimeout,
		EnableObs:   true,
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		return nil, err
	}
	defer u.Close()
	src := w.SourceDomain()

	type grant struct {
		spec   *core.Spec
		handle string
	}
	grants := make([]grant, 0, failoverLoad)
	loadStart := time.Now()
	for i := 0; i < failoverLoad; i++ {
		spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
		res, err := u.ReserveE2E(spec)
		if err != nil || !res.Granted {
			return nil, fmt.Errorf("load reserve %d: %v %+v", i, err, res)
		}
		grants = append(grants, grant{spec: spec, handle: res.Handle})
	}
	loadTook := time.Since(loadStart)
	grantedBefore := countGranted(w, src)

	killStart := time.Now()
	killed, err := w.KillLeader(src)
	if err != nil {
		return nil, err
	}
	promoted, err := w.PromoteAny(src)
	if err != nil {
		return nil, fmt.Errorf("no promotable follower: %w", err)
	}
	u.Close() // pooled connection died with the leader; redial on next call

	// First grant on the new leader marks the end of the outage window.
	probe := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	res, err := u.ReserveE2E(probe)
	if err != nil || !res.Granted {
		return nil, fmt.Errorf("first reserve after failover: %v %+v", err, res)
	}
	outage := time.Since(killStart)

	// Retransmit everything the user was ever granted.
	replayed, lost, wrongHandle := 0, 0, 0
	for _, g := range grants {
		res, err := u.ReserveE2E(g.spec)
		switch {
		case err != nil || !res.Granted:
			lost++
		case res.Handle != g.handle:
			wrongHandle++
		default:
			replayed++
		}
	}
	doubles := countGranted(w, src) - grantedBefore - 1 // -1: the probe

	// Quiesce and diff the survivors byte-for-byte.
	stLeader := w.ReplicaBB(src, promoted).ReplicationStatus()
	digests := "identical"
	deadlineAt := time.Now().Add(10 * time.Second)
	for {
		converged := true
		target := w.ReplicaBB(src, promoted).ReplicationStatus().JournalSeq
		for i := 0; i < failoverReplicas; i++ {
			if i == killed || i == promoted {
				continue
			}
			if w.ReplicaBB(src, i).ReplicationStatus().AppliedSeq < target {
				converged = false
			}
		}
		if converged || time.Now().After(deadlineAt) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	base, err := w.ReplicaBB(src, promoted).StateDigest()
	if err != nil {
		return nil, err
	}
	for i := 0; i < failoverReplicas; i++ {
		if i == killed || i == promoted {
			continue
		}
		d, err := w.ReplicaBB(src, i).StateDigest()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(base, d) {
			digests = fmt.Sprintf("DIVERGED at replica %d", i)
		}
	}

	t := &Table{
		ID:      "failover",
		Title:   "Leader failover in a replicated bandwidth-broker group",
		Claim:   "Killing a leader mid-load loses nothing a caller ever saw: a promoted follower serves the same grants, answers retransmissions from its replicated replay cache, and admits new work.",
		Columns: []string{"measure", "value"},
	}
	t.AddRow("replica group size", fmt.Sprintf("%d", failoverReplicas))
	t.AddRow("grants before kill", fmt.Sprintf("%d (%.0f/s commit-gated)", len(grants), float64(len(grants))/loadTook.Seconds()))
	t.AddRow("killed leader", fmt.Sprintf("replica %d (journal buffered, batch fsync)", killed))
	t.AddRow("promoted follower", fmt.Sprintf("replica %d, term %d", promoted, stLeader.Term))
	t.AddRow("outage (kill -> first new grant)", outage.Round(time.Millisecond).String())
	t.AddRow("retransmits answered from replay cache", fmt.Sprintf("%d/%d", replayed, len(grants)))
	t.AddRow("lost grants", fmt.Sprintf("%d", lost))
	t.AddRow("wrong handles", fmt.Sprintf("%d", wrongHandle))
	t.AddRow("double admissions", fmt.Sprintf("%d", doubles))
	t.AddRow("survivor state digests", digests)
	t.Notes = append(t.Notes,
		"Settlements are commit-gated: the leader answers a caller only after a majority of replicas acknowledged the covering journal records, so every answered grant survives the kill.",
		"The promoted follower's election fences the RAR epoch past anything the dead leader could have minted; its journal holds the streamed frames byte-for-byte.",
	)
	return t, nil
}

// countGranted counts granted reservations in one domain's table.
func countGranted(w *World, domain string) int {
	n := 0
	for _, r := range w.BBs[domain].Table().All() {
		if r.Status == resv.Granted {
			n++
		}
	}
	return n
}
