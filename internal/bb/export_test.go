package bb

import (
	"strings"

	"e2eqos/internal/identity"
	"e2eqos/internal/signalling"
)

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
	for k, st := range b.tunnels.batches {
		out = append(out, ReplayEntry{RARID: k.rar, BatchID: k.id, Outcome: st.outcome})
	}
	return out
}

// CompArg encodes a compensation argument as the reserve path journals
// it, for tests that pin saga records byte for byte.
func CompArg(peer identity.DN, key, handle string) []byte {
	return compArg{Peer: peer, Key: key, Handle: handle}.AppendBinary(nil)
}

// NormalizeRARRecord decodes a journaled bb.rar payload and encodes it
// again with what differs from run to run fixed: the RAR id (in the
// record's own key and in every downstream key) becomes "R", the handle
// "H", the epoch 1, and the outcome, which carries signatures, is left
// out. What remains is the route bookkeeping a golden can pin.
func NormalizeRARRecord(data []byte, rarID string) ([]byte, error) {
	var r rarRec
	if err := r.DecodeBinary(data); err != nil {
		return nil, err
	}
	fix := func(key string) string { return strings.Replace(key, rarID, "R", 1) }
	r.RARID = fix(r.RARID)
	for i := range r.Legs {
		r.Legs[i].Key = fix(r.Legs[i].Key)
	}
	r.Handle, r.Epoch, r.Outcome = "H", 1, nil
	return r.AppendBinary(nil), nil
}
