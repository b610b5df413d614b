package bb

import "e2eqos/internal/signalling"

// CommitGate appends one record that changes nothing (the cancel of a
// RAR nobody registered) and waits for its majority commit: the leader's
// settle path with no handler around it, for BenchmarkReplCommitGate.
func (b *BB) CommitGate() {
	b.journalRARCancel("bench-commit-gate", 0)
	b.replWaitCommit()
}

// ReplayEntry is what the batch replay cache keeps of one batch.
type ReplayEntry struct {
	RARID, BatchID string
	Outcome        *signalling.Message
}

// ReplayEntries lists the batch replay cache, for tests of what a
// settled batch leaves behind.
func (b *BB) ReplayEntries() []ReplayEntry {
	b.tunnels.mu.Lock()
	defer b.tunnels.mu.Unlock()
	out := make([]ReplayEntry, 0, len(b.tunnels.batches))
	for _, st := range b.tunnels.batches {
		out = append(out, ReplayEntry{RARID: st.rarID, BatchID: st.id, Outcome: st.outcome})
	}
	return out
}
