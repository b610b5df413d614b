package bb

// CommitGate appends one record that changes nothing (the cancel of a
// RAR nobody registered) and waits for its majority commit: the leader's
// settle path with no handler around it, for BenchmarkReplCommitGate.
func (b *BB) CommitGate() {
	b.journalRARCancel("bench-commit-gate", 0)
	b.replWaitCommit()
}
