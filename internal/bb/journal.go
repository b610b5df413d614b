package bb

import (
	"fmt"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/tunnel"
)

// Journal record vocabulary for the broker's own durable state: the
// RAR route/replay cache. Reservation-table mutations use the "resv."
// vocabulary emitted by the table itself (resv.AttachJournal); both
// interleave in one journal per broker.
const (
	opRAR       = "bb.rar"
	opRARCancel = "bb.rar_cancel"
	// Tunnel vocabulary: endpoint lifecycle plus the sub-flow hot path,
	// one record per batch at either end. A batch's ops carry the
	// endpoint generations minted under the endpoint's lock, and the
	// registration's order lock puts its batch records in the journal in
	// generation order, after its bb.tunnel record (see replayer).
	opTunnel       = "bb.tunnel"
	opTunnelRemove = "bb.tunnel_remove"
	opTunnelBatch  = "bb.tunnel_batch"
)

// rarRec is a settled route entry, journaled whole: its key, its epoch,
// its route and its outcome.
type rarRec struct {
	// RARID is the route key the entry is registered under.
	RARID string
	// Epoch uniquely identifies this registration of the RAR id in the
	// journal (ids come from requesters and may legitimately reappear
	// after a cancel; epochs never repeat), so replay never lets a stale
	// cancel remove a fresh entry.
	Epoch int64
	route
	// Outcome is the response originally returned for this RAR,
	// replayed verbatim when a retransmitted reserve arrives (the
	// upstream hop retries after losing the response; re-admitting
	// would double-book, denying a granted chain would strand it).
	Outcome *signalling.Message
}

// rarRecOf is a settled route entry's record.
func rarRecOf(e *entry[route]) rarRec {
	return rarRec{RARID: e.key, Epoch: e.epoch, route: e.val, Outcome: e.outcome}
}

// rarCancelRec journals the removal of a RAR entry.
type rarCancelRec struct {
	RARID string
	Epoch int64
}

// tunnelOpRec is one applied sub-flow mutation. Bandwidth is set for
// allocations only.
type tunnelOpRec struct {
	Action    string // "alloc" or "release"
	SubFlowID string
	Bandwidth int64
	Gen       int64
}

// tunnelBatchRec journals an applied batch atomically: the ops that
// actually mutated the endpoint (with their generations) plus, at the
// end that answers retransmissions, the batch's sender and Seq, the
// sender's low-water once the batch settled, the opsSum of the ops it
// carried and the outcome message replayed verbatim. The source's
// records (local halves, undone halves) carry no sender and no outcome;
// the local halves' record carries the Seq the source minted, which
// replay raises the epoch counter to. One record per batch is what makes
// batching cheap on the journal too.
type tunnelBatchRec struct {
	RARID   string
	Epoch   int64
	Sender  identity.DN
	Seq     int64
	Low     int64
	Sum     uint64
	Ops     []tunnelOpRec
	Outcome *signalling.Message
}

// brokerState is the rotated snapshot: the reservation table plus
// every settled RAR entry, the tunnel endpoints with their live
// sub-flows, the batch replay windows, and the epoch counter so
// recovered brokers keep minting unique epochs.
type brokerState struct {
	Table   []byte
	RARs    []rarRec
	Tunnels []tunnel.EndpointSnapshot
	// TunnelBatches are the batch replay windows: each settled batch as
	// its record carries it, without its ops (the endpoints hold them).
	TunnelBatches []tunnelBatchRec
	// Sagas is the compensation coordinator's snapshot (saga.Snapshot):
	// rollback debt still owed when the journal rotated.
	Sagas []byte
	Epoch int64
}

// openJournal opens (or creates) the broker's journal directory,
// recovers persisted state into the table and route cache, wires the
// table's emission hook, and rotates so the WAL restarts empty on a
// snapshot reflecting everything just recovered. Called from New
// before the broker is shared; mutates b without locks.
func (b *BB) openJournal() error {
	t0 := time.Now()
	opts := journal.Options{
		Fsync: b.cfg.Fsync,
		OnAppend: func(d time.Duration) {
			b.m.journalAppends.Inc()
			b.m.journalAppendSeconds.Observe(d.Seconds())
		},
		OnFsync: func() { b.m.journalFsyncBatches.Inc() },
		OnError: func(err error) {
			b.m.journalErrors.Inc()
			b.log.Error("journal: write failed", "err", err)
		},
	}
	if b.replicated() {
		// Replication streams raw frames off the journal's in-memory
		// tail; unreplicated brokers keep TailBytes zero and pay nothing.
		opts.TailBytes = replTailBytes
	}
	j, rec, err := journal.Open(b.cfg.StateDir, opts)
	if err != nil {
		return fmt.Errorf("bb %s: %w", b.cfg.Domain, err)
	}
	if err := b.recoverState(rec); err != nil {
		j.Close()
		return fmt.Errorf("bb %s: journal recovery: %w", b.cfg.Domain, err)
	}
	b.journal = j
	resv.AttachJournal(b.table, j)
	if rec.Snapshot != nil || len(rec.Records) > 0 {
		// Boot fence: what a previous incarnation minted into records it
		// lost, a batch Seq the far end holds among them, lies above the
		// recovered counter by at most the records appended since its last
		// snapshot. The stride clears that, and the rotation below fsyncs
		// the fenced counter before anything new is minted. A follower
		// takes its leader's counter instead.
		if !b.replicated() || !b.cfg.StartAsFollower {
			b.epoch.Add(epochFenceStride)
		}
		if err := j.Rotate(b.snapshotState); err != nil {
			j.Close()
			return fmt.Errorf("bb %s: post-recovery checkpoint: %w", b.cfg.Domain, err)
		}
		b.m.checkpoints.Inc()
	}
	took := time.Since(t0)
	b.m.recoverySeconds.Set(took.Seconds())
	b.m.recoveredRecords.Add(int64(len(rec.Records)))
	if rec.Torn {
		b.log.Warn("journal: discarded torn record tail from a previous crash")
	}
	if rec.Snapshot != nil || len(rec.Records) > 0 {
		b.log.Info("journal: recovered broker state",
			"records", len(rec.Records), "reservations", b.table.Len(), "took", took)
	}
	return nil
}

// recoverState feeds the replayer what a previous incarnation left: the
// snapshot, then the record tail in journal order. Runs before the
// broker is shared.
func (b *BB) recoverState(rec *journal.Recovered) error {
	if rec.Snapshot != nil {
		if err := b.replay.install(rec.Snapshot); err != nil {
			return err
		}
	}
	for _, r := range rec.Records {
		if err := b.replay.apply(r); err != nil {
			return err
		}
	}
	return nil
}

// decodeBrokerState parses a rotated snapshot; bytes that do not open
// with the snapshot's magic and version are wire.ErrUnsupportedFormat.
func decodeBrokerState(data []byte) (brokerState, error) {
	var st brokerState
	if err := st.decodeBinary(data); err != nil {
		return st, fmt.Errorf("decoding snapshot: %w", err)
	}
	return st, nil
}

// snapshotState serialises the broker's durable state for rotation.
// Entries still in flight are left out: they journal themselves when
// they settle, after the rotation completes. Called by journal.Rotate
// with appends blocked; takes the table's lock, then each registry's in
// turn, which is safe because no appender holds one while appending.
// Every listing is sorted and Endpoint.Snapshot sorts sub-flows, so
// identical state always marshals identically.
func (b *BB) snapshotState() ([]byte, error) {
	tbl, err := b.table.Snapshot()
	if err != nil {
		return nil, err
	}
	st := brokerState{Table: tbl, Sagas: b.sagas.Snapshot()}
	for _, e := range b.routes.list() {
		st.RARs = append(st.RARs, rarRecOf(&e))
	}
	for _, t := range b.tunnels.list() {
		st.Tunnels = append(st.Tunnels, t.val.ep.Snapshot())
		for _, r := range t.val.batches.list() {
			r.RARID, r.Epoch = t.key, t.epoch
			st.TunnelBatches = append(st.TunnelBatches, r)
		}
	}
	// Read after the listings: the counter is at or above every epoch
	// they hold.
	st.Epoch = b.epoch.Load()
	return st.appendBinary(nil), nil
}

// journalTunnel appends a tunnel-establishment record: the endpoint's
// full descriptor (no sub-flows yet). Called after registration with no
// locks held.
func (b *BB) journalTunnel(ep *tunnel.Endpoint) {
	if b.journal == nil {
		return
	}
	_ = b.journal.Append(opTunnel, ep.Snapshot())
}

// journalTunnelRemove appends the teardown of a tunnel registration.
func (b *BB) journalTunnelRemove(rarID string, epoch int64) {
	if b.journal == nil {
		return
	}
	_ = b.journal.Append(opTunnelRemove, rarCancelRec{RARID: rarID, Epoch: epoch})
}

// journalTunnelBatch appends an applied batch against ep's registration:
// every op that mutated the endpoint plus, from the end that answers
// retransmissions, the replayable outcome, in one record. A record with
// neither says nothing and is not written.
func (b *BB) journalTunnelBatch(ep *tunnel.Endpoint, rec tunnelBatchRec) {
	if b.journal == nil || (len(rec.Ops) == 0 && rec.Outcome == nil) {
		return
	}
	rec.RARID, rec.Epoch = ep.RARID, ep.Epoch
	_ = b.journal.Append(opTunnelBatch, rec)
}

// journalRAR appends the settled route entry. Called by the entry's
// owner once it has settled, with no locks held.
func (b *BB) journalRAR(e *entry[route]) {
	if b.journal == nil {
		return
	}
	_ = b.journal.Append(opRAR, rarRecOf(e))
}

// journalRARCancel appends the removal of a route entry.
func (b *BB) journalRARCancel(rarID string, epoch int64) {
	if b.journal == nil {
		return
	}
	_ = b.journal.Append(opRARCancel, rarCancelRec{RARID: rarID, Epoch: epoch})
}

// maybeCheckpoint rotates the journal when enough records accumulated.
// TryLock coalesces concurrent triggers into one rotation; callers
// hold no locks.
func (b *BB) maybeCheckpoint() {
	if b.journal == nil || !b.journal.NeedRotate() {
		return
	}
	if !b.ckptMu.TryLock() {
		return
	}
	defer b.ckptMu.Unlock()
	t0 := time.Now()
	if err := b.journal.Rotate(b.snapshotState); err != nil {
		b.m.journalErrors.Inc()
		b.log.Error("journal: checkpoint failed", "err", err)
		return
	}
	b.m.checkpoints.Inc()
	b.log.Info("journal: checkpointed broker state", "took", time.Since(t0))
}

// Journal exposes the broker's journal (nil when durability is
// disabled); tests and the daemon's shutdown path use it.
func (b *BB) Journal() *journal.Journal { return b.journal }
