package bb

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/resv"
	"e2eqos/internal/saga"
	"e2eqos/internal/signalling"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
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
	// endpoint generation minted under the mutated flow's shard lock;
	// emit-after-unlock means the WAL interleaving of ops for *different*
	// sub-flows can disagree with generation order, so recovery re-sorts
	// by generation before applying (see applyTunnelOps).
	opTunnel       = "bb.tunnel"
	opTunnelRemove = "bb.tunnel_remove"
	opTunnelBatch  = "bb.tunnel_batch"
)

// rarRec is what a reserve created locally, for cancellation, tunnel
// management and replay — the route entry kept in memory (rarState) and,
// once the reserve has settled, journaled whole.
type rarRec struct {
	// RARID is the route key the entry is registered under.
	RARID string
	// Epoch uniquely identifies this registration of the RAR id in the
	// journal (ids come from requesters and may legitimately reappear
	// after a cancel; epochs never repeat), so replay never lets a stale
	// cancel remove a fresh entry. Immutable after registration.
	Epoch    int64
	Handle   string
	Tunnel   bool
	SourceBB identity.DN // authenticated source-domain broker (or user)
	// Legs are where the reserve went from here, each under the route
	// key that leg runs under; cancels follow them. None at the end of
	// the line; one on a single path — its key differs from the entry's
	// own when the ingress re-routed onto an alternate path — with BW
	// zero; one per share, BW set, at the ingress of a split.
	Legs []childRoute
	// Outcome is the response originally returned for this RAR,
	// replayed verbatim when a retransmitted reserve arrives (the
	// upstream hop retries after losing the response; re-admitting
	// would double-book, denying a granted chain would strand it).
	Outcome *signalling.Message
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

// tunnelOpRecord is one journaled sub-flow mutation as recovery and the
// follower hold it in memory, out of its batch record. Epoch pins the op
// to a specific registration of the tunnel RAR id, exactly like
// rarCancelRec does for routes.
type tunnelOpRecord struct {
	RARID string
	Epoch int64
	tunnelOpRec
}

// tunnelBatchRec journals an applied batch atomically: the ops that
// actually mutated the endpoint (with their generations) plus, at the
// end that answers retransmissions, the batch id and the outcome message
// replayed verbatim. The source's records (local halves, undone halves)
// carry neither. One record per batch is what makes batching cheap on
// the journal too.
type tunnelBatchRec struct {
	RARID   string
	Epoch   int64
	BatchID string
	Ops     []tunnelOpRec
	Outcome *signalling.Message
}

// tunnelBatchSnap is the snapshot form of a settled batch: the ops are
// already reflected in the endpoint snapshot, only the replay-cache
// entry survives.
type tunnelBatchSnap struct {
	RARID   string
	Epoch   int64
	BatchID string
	Outcome *signalling.Message
}

// brokerState is the rotated snapshot: the reservation table plus
// every settled RAR entry, the tunnel endpoints with their live
// sub-flows, the batch replay cache, and the epoch counter so
// recovered brokers keep minting unique epochs.
type brokerState struct {
	Table         []byte
	RARs          []rarRec
	Tunnels       []tunnel.EndpointSnapshot
	TunnelBatches []tunnelBatchSnap
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
	applied, err := b.recoverState(rec)
	if err != nil {
		j.Close()
		return fmt.Errorf("bb %s: journal recovery: %w", b.cfg.Domain, err)
	}
	b.journal = j
	resv.AttachJournal(b.table, j)
	if rec.Snapshot != nil || len(rec.Records) > 0 {
		if err := j.Rotate(b.snapshotState); err != nil {
			b.log.Error("journal: post-recovery checkpoint failed", "err", err)
		} else {
			b.m.checkpoints.Inc()
		}
	}
	took := time.Since(t0)
	b.m.recoverySeconds.Set(took.Seconds())
	b.m.recoveredRecords.Add(int64(applied))
	if rec.Torn {
		b.log.Warn("journal: discarded torn record tail from a previous crash")
	}
	if rec.Snapshot != nil || applied > 0 {
		b.log.Info("journal: recovered broker state",
			"records", applied, "reservations", b.table.Len(), "took", took)
	}
	return nil
}

// recoverState rebuilds the table and route cache from a recovered
// snapshot + record tail, returning how many records applied. Runs
// before the broker is shared, so it reads and writes b lock-free.
func (b *BB) recoverState(rec *journal.Recovered) (int, error) {
	if rec.Snapshot != nil {
		st, err := decodeBrokerState(rec.Snapshot)
		if err != nil {
			return 0, err
		}
		if len(st.Table) > 0 {
			tbl, err := resv.RestoreTable(st.Table)
			if err != nil {
				return 0, err
			}
			tbl.SetClock(b.cfg.Clock)
			b.table = tbl
		}
		b.rarEpoch = st.Epoch
		for _, r := range st.RARs {
			b.routes[r.RARID] = recoveredRARState(r)
		}
		for _, ts := range st.Tunnels {
			ep, err := tunnel.Restore(ts)
			if err != nil {
				return 0, fmt.Errorf("restoring tunnel %s: %w", ts.RARID, err)
			}
			b.tunnels.reg.Replace(ep)
		}
		for _, bs := range st.TunnelBatches {
			b.tunnels.restoreBatch(bs.RARID, bs.Epoch, bs.BatchID, bs.Outcome)
		}
		if err := b.sagas.Restore(st.Sagas); err != nil {
			return 0, fmt.Errorf("restoring sagas: %w", err)
		}
	}
	applied, err := resv.Replay(b.table, rec.Records)
	if err != nil {
		return applied, err
	}
	// Sub-flow mutations are collected during the scan and applied per
	// endpoint in generation order afterwards: emit-after-unlock lets
	// WAL order scramble records for distinct sub-flows, and establish /
	// remove records interleave with them. The epoch filter in
	// applyTunnelOps discards ops against registrations that did not
	// survive the scan.
	var tunnelOps []tunnelOpRecord
	for _, r := range rec.Records {
		ops, ok, err := b.applyBBRecord(r)
		if err != nil {
			return applied, err
		}
		tunnelOps = append(tunnelOps, ops...)
		if ok {
			applied++
		}
	}
	if err := b.applyTunnelOps(tunnelOps); err != nil {
		return applied, err
	}
	return applied, nil
}

// decodeBrokerState parses a rotated snapshot; bytes that do not open
// with the snapshot's magic and version are wire.ErrUnsupportedFormat.
// Boot recovery and the replication follower's snapshot install share
// it.
func decodeBrokerState(data []byte) (brokerState, error) {
	var st brokerState
	if err := st.decodeBinary(data); err != nil {
		return st, fmt.Errorf("decoding snapshot: %w", err)
	}
	return st, nil
}

// applyBBRecord applies one "bb." journal record to the live broker
// state, with fine-grained locking, so boot-time recovery and the
// replication follower's live stream apply share one semantics:
// higher-epoch-wins for route and tunnel (re)registrations, exact-epoch
// matching for removals. A batch record's sub-flow mutations are NOT
// applied here — they need ordering the caller owns (recovery sorts the
// whole tail by generation; the follower holds a dense-generation
// reorder buffer) — so they are decoded and returned instead. The bool
// reports whether the record belonged to the "bb." or saga vocabulary at
// all; foreign ops (the table's "resv." records) return (nil, false,
// nil). An unknown "bb." op is an error, as an unknown "resv." op is to
// resv.Replay: a version-skew tripwire — a journal written one release
// back holds its single-op sub-flows as bb.tunnel_alloc /
// bb.tunnel_release, and skipping those would recover a tunnel without
// them.
func (b *BB) applyBBRecord(r journal.Record) ([]tunnelOpRecord, bool, error) {
	switch r.Op {
	case opRAR:
		var rr rarRec
		if err := r.Decode(&rr); err != nil {
			return nil, false, err
		}
		b.mu.Lock()
		if rr.Epoch > b.rarEpoch {
			b.rarEpoch = rr.Epoch
		}
		// Concurrent emission can reorder records for a reused RAR
		// id; the higher epoch is always the later registration.
		if cur, ok := b.routes[rr.RARID]; !ok || cur.Epoch <= rr.Epoch {
			b.routes[rr.RARID] = recoveredRARState(rr)
		}
		b.mu.Unlock()
		return nil, true, nil
	case opRARCancel:
		var cr rarCancelRec
		if err := r.Decode(&cr); err != nil {
			return nil, false, err
		}
		b.mu.Lock()
		if cr.Epoch > b.rarEpoch {
			b.rarEpoch = cr.Epoch
		}
		// Remove only the registration this cancel actually ended: a
		// stale cancel must not evict a fresh re-registration.
		if cur, ok := b.routes[cr.RARID]; ok && cur.Epoch == cr.Epoch {
			delete(b.routes, cr.RARID)
		}
		b.mu.Unlock()
		return nil, true, nil
	case opTunnel:
		var ts tunnel.EndpointSnapshot
		if err := r.Decode(&ts); err != nil {
			return nil, false, err
		}
		b.mu.Lock()
		if ts.Epoch > b.rarEpoch {
			b.rarEpoch = ts.Epoch
		}
		b.mu.Unlock()
		// The higher epoch is always the later registration of a
		// reused tunnel RAR id.
		if cur, ok := b.tunnels.reg.Get(ts.RARID); ok && cur.Epoch > ts.Epoch {
			return nil, true, nil
		}
		ep, err := tunnel.Restore(ts)
		if err != nil {
			return nil, false, fmt.Errorf("restoring tunnel %s: %w", ts.RARID, err)
		}
		b.tunnels.reg.Replace(ep)
		return nil, true, nil
	case opTunnelRemove:
		var cr rarCancelRec
		if err := r.Decode(&cr); err != nil {
			return nil, false, err
		}
		b.mu.Lock()
		if cr.Epoch > b.rarEpoch {
			b.rarEpoch = cr.Epoch
		}
		b.mu.Unlock()
		if cur, ok := b.tunnels.reg.Get(cr.RARID); ok && cur.Epoch == cr.Epoch {
			b.tunnels.reg.Remove(cr.RARID)
			b.tunnels.dropBatches(cr.RARID, cr.Epoch)
		}
		return nil, true, nil
	case opTunnelBatch:
		var br tunnelBatchRec
		if err := r.Decode(&br); err != nil {
			return nil, false, err
		}
		ops := make([]tunnelOpRecord, 0, len(br.Ops))
		for _, op := range br.Ops {
			ops = append(ops, tunnelOpRecord{RARID: br.RARID, Epoch: br.Epoch, tunnelOpRec: op})
		}
		if br.BatchID != "" {
			b.tunnels.restoreBatch(br.RARID, br.Epoch, br.BatchID, br.Outcome)
		}
		return ops, true, nil
	default:
		// Saga records (the rollback-debt ledger) replay into the
		// coordinator; Resume, after the scan, presumed-aborts whatever
		// is still live and restarts its compensations.
		if saga.IsSagaOp(r.Op) {
			_, err := b.sagas.ApplyRecord(r)
			return nil, err == nil, err
		}
		if strings.HasPrefix(r.Op, "bb.") {
			return nil, false, fmt.Errorf("bb: unknown journal op %q", r.Op)
		}
		return nil, false, nil
	}
}

// applyTunnelOps replays collected sub-flow mutations: grouped per
// tunnel, filtered to the registration (epoch) that survived the scan,
// sorted by generation, applied through the endpoint's idempotent
// replay entry points (which skip anything already reflected in the
// snapshot the endpoint was restored from).
func (b *BB) applyTunnelOps(ops []tunnelOpRecord) error {
	if len(ops) == 0 {
		return nil
	}
	byRAR := make(map[string][]tunnelOpRecord)
	for _, op := range ops {
		byRAR[op.RARID] = append(byRAR[op.RARID], op)
	}
	for rarID, group := range byRAR {
		ep, ok := b.tunnels.reg.Get(rarID)
		if !ok {
			continue // tunnel removed later in the log
		}
		live := group[:0]
		for _, op := range group {
			if op.Epoch == ep.Epoch {
				live = append(live, op)
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].Gen < live[j].Gen })
		for _, op := range live {
			switch op.Action {
			case "alloc":
				if err := ep.ReplayAlloc(op.SubFlowID, units.Bandwidth(op.Bandwidth), op.Gen); err != nil {
					return err
				}
			case "release":
				ep.ReplayRelease(op.SubFlowID, op.Gen)
			}
		}
	}
	return nil
}

// recoveredRARState rebuilds an in-memory route entry from its record.
// The done channel comes pre-closed: the reserve settled in a previous
// life, so duplicates and cancels must not wait on it.
func recoveredRARState(r rarRec) *rarState {
	done := make(chan struct{})
	close(done)
	return &rarState{rarRec: r, done: done}
}

// snapshotState serialises the broker's durable state for rotation.
// Entries still in flight (no outcome yet) are skipped: they journal
// themselves when they settle, after the rotation completes. Called by
// journal.Rotate with appends blocked; takes table.mu then b.mu, which
// is safe because no appender holds either while appending.
func (b *BB) snapshotState() ([]byte, error) {
	tbl, err := b.table.Snapshot()
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	st := brokerState{Table: tbl, Epoch: b.rarEpoch}
	for _, rs := range b.routes {
		if rs.Outcome != nil {
			st.RARs = append(st.RARs, rs.rarRec)
		}
	}
	b.mu.Unlock()
	st.Sagas = b.sagas.Snapshot()
	sort.Slice(st.RARs, func(i, j int) bool { return st.RARs[i].RARID < st.RARs[j].RARID })
	// Registry.All is sorted by RAR id and Endpoint.Snapshot sorts
	// sub-flows, so identical state always marshals identically.
	for _, ep := range b.tunnels.reg.All() {
		st.Tunnels = append(st.Tunnels, ep.Snapshot())
	}
	st.TunnelBatches = b.tunnels.settledBatches()
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

// journalTunnelBatch appends an applied batch: every op that mutated
// the endpoint plus, from the end that answers retransmissions, the
// replayable outcome, in one record. A record with neither says nothing
// and is not written.
func (b *BB) journalTunnelBatch(ep *tunnel.Endpoint, batchID string, ops []tunnelOpRec, outcome *signalling.Message) {
	if b.journal == nil || (len(ops) == 0 && outcome == nil) {
		return
	}
	_ = b.journal.Append(opTunnelBatch, tunnelBatchRec{
		RARID: ep.RARID, Epoch: ep.Epoch, BatchID: batchID, Ops: ops, Outcome: outcome,
	})
}

// journalRAR appends the settled route entry. Called after the outcome
// is recorded and with no locks held.
func (b *BB) journalRAR(st *rarState) {
	if b.journal == nil {
		return
	}
	b.mu.Lock()
	rec := st.rarRec
	b.mu.Unlock()
	_ = b.journal.Append(opRAR, rec)
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
