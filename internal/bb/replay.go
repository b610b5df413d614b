package bb

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"e2eqos/internal/journal"
	"e2eqos/internal/resv"
	"e2eqos/internal/saga"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
)

// replayer turns journaled state back into broker state, and is the only
// thing that does (DESIGN.md §6.4, "Replay: one engine, two feeds"). Boot
// recovery feeds it the snapshot and WAL tail a previous incarnation left;
// a replication follower feeds it the snapshots and frames its leader
// streams. Both install a snapshot in place, apply records one at a time
// in journal order, and flush when the feed ends — the end of the tail at
// boot, the election win of a promoted follower — so a broker promoted
// from a stream and one booted from the journal that stream wrote hold
// the same state by construction.
//
// Route and tunnel (re)registrations and removals go to the registries,
// which own the epoch rules; table records go through the
// resv.StreamReplayer. Batch records need more: emit-after-unlock lets the
// journal order of batches on one tunnel disagree with the order they
// were applied in, and lets a batch overtake its tunnel's establishment
// record. Generations are dense per endpoint, so the op that extends
// Gen()+1 is always unambiguous; an op that does not is parked until the
// ones before it arrive, and a batch's replay entry until its
// registration does.
//
// Not safe for concurrent use: New runs it before the broker is shared,
// a follower under applyMu.
type replayer struct {
	b    *BB
	resv *resv.StreamReplayer
	// parked holds, per tunnel RAR, what batch records left that cannot
	// apply yet: the registration they belong to is absent, or an op of a
	// lower generation has not arrived. Their records are in the WAL but
	// not in any snapshot, so the WAL must not be rotated away while one
	// waits.
	parked map[string][]parkedOp
}

// parkedOp is one item of a batch record, pinned to the registration
// (epoch) of the tunnel it was applied to: a sub-flow mutation or, with
// batch set, the batch's replay entry and its sender's low-water.
type parkedOp struct {
	epoch int64
	batch *tunnelBatchRec
	tunnelOpRec
}

func newReplayer(b *BB) *replayer {
	return &replayer{b: b, resv: resv.NewStreamReplayer(b.table), parked: make(map[string][]parkedOp)}
}

// idle reports that nothing is parked: the live state reflects every
// record applied so far.
func (rp *replayer) idle() bool { return len(rp.parked) == 0 }

// install replaces the broker's entire durable state with a snapshot's,
// in place: gauges and handlers keep their table and registries. The
// tunnels and the table are validated before anything is touched.
func (rp *replayer) install(data []byte) error {
	b := rp.b
	st, err := decodeBrokerState(data)
	if err != nil {
		return err
	}
	eps := make([]*tunnel.Endpoint, 0, len(st.Tunnels))
	for _, ts := range st.Tunnels {
		ep, err := tunnel.Restore(ts)
		if err != nil {
			return fmt.Errorf("restoring tunnel %s: %w", ts.RARID, err)
		}
		eps = append(eps, ep)
	}
	if err := b.table.ResetFrom(st.Table); err != nil {
		return err
	}
	b.noteEpoch(st.Epoch)
	b.routes.reset()
	for _, rr := range st.RARs {
		b.routes.register(rr.RARID, rr.Epoch, rr.route, rr.Outcome)
	}
	b.tunnels.reset()
	for _, ep := range eps {
		b.tunnels.register(ep.RARID, ep.Epoch, newTunnelReg(ep), nil)
	}
	// A replay window lives in its registration: one whose registration
	// the snapshot does not hold has no tunnel to answer for.
	for i := range st.TunnelBatches {
		r := &st.TunnelBatches[i]
		if t, ok := b.tunnels.at(r.RARID, r.Epoch); ok {
			t.val.batches.restore(r)
		}
	}
	// Open rollback debt rides the snapshot; a follower holds it passively
	// until promotion resumes the compensations. A snapshot without sagas
	// clears the set: a saga still held was settled by the leader, and
	// resuming it on promotion would compensate against a granted
	// reservation.
	if err := b.sagas.Restore(st.Sagas); err != nil {
		return fmt.Errorf("restoring sagas: %w", err)
	}
	// Whatever was parked or tombstoned belongs to the state just replaced.
	clear(rp.parked)
	rp.resv.Reset()
	return nil
}

// apply replays one journal record onto the live state. Every record is
// absolute, so one the state already reflects is a no-op; the registries
// apply the epoch rules. An unknown "bb.", "resv." or "saga." op is an
// error, not a skip: a version-skew tripwire — an older journal may hold
// single-op sub-flows as bb.tunnel_alloc / bb.tunnel_release, and
// skipping those would bring up a tunnel without them; or saga.commit,
// and skipping that would presume a committed split aborted. Ops of no
// known vocabulary are ignored.
func (rp *replayer) apply(r journal.Record) error {
	if err := rp.resv.Apply(r); err != nil {
		return err
	}
	b := rp.b
	switch r.Op {
	case opRAR:
		var rr rarRec
		if err := r.Decode(&rr); err != nil {
			return err
		}
		b.noteEpoch(rr.Epoch)
		b.routes.register(rr.RARID, rr.Epoch, rr.route, rr.Outcome)
	case opRARCancel:
		var cr rarCancelRec
		if err := r.Decode(&cr); err != nil {
			return err
		}
		b.noteEpoch(cr.Epoch)
		b.routes.remove(cr.RARID, cr.Epoch)
	case opTunnel:
		var ts tunnel.EndpointSnapshot
		if err := r.Decode(&ts); err != nil {
			return err
		}
		b.noteEpoch(ts.Epoch)
		ep, err := tunnel.Restore(ts)
		if err != nil {
			return fmt.Errorf("restoring tunnel %s: %w", ts.RARID, err)
		}
		// An equal epoch is the same registration, which came with a
		// snapshot cut between the registration and this record's append:
		// it holds at least what the record does, and the ops since are in
		// the records that follow.
		if b.tunnels.register(ts.RARID, ts.Epoch, newTunnelReg(ep), nil) {
			return rp.drain(ts.RARID, false) // what overtook this record
		}
	case opTunnelRemove:
		var cr rarCancelRec
		if err := r.Decode(&cr); err != nil {
			return err
		}
		b.noteEpoch(cr.Epoch)
		b.tunnels.remove(cr.RARID, cr.Epoch)
		// What is still parked for the registration that just ended is moot.
		rp.park(cr.RARID, slices.DeleteFunc(rp.parked[cr.RARID], func(op parkedOp) bool { return op.epoch <= cr.Epoch }))
	case opTunnelBatch:
		var br tunnelBatchRec
		if err := r.Decode(&br); err != nil {
			return err
		}
		ops := rp.parked[br.RARID]
		if br.Seq != 0 {
			ops = append(ops, parkedOp{epoch: br.Epoch, batch: &br})
		}
		for _, op := range br.Ops {
			ops = append(ops, parkedOp{epoch: br.Epoch, tunnelOpRec: op})
		}
		rp.park(br.RARID, ops)
		return rp.drain(br.RARID, false)
	default:
		// Saga records (the rollback-debt ledger) replay into the
		// coordinator; Resume, once this broker leads, presumed-aborts
		// whatever is still live and restarts its compensations.
		if saga.IsSagaOp(r.Op) {
			return b.sagas.ApplyRecord(r)
		}
		if strings.HasPrefix(r.Op, "bb.") {
			return fmt.Errorf("bb: unknown journal op %q", r.Op)
		}
	}
	return nil
}

// park stores what is left of a tunnel's parked ops.
func (rp *replayer) park(rarID string, ops []parkedOp) {
	if len(ops) == 0 {
		delete(rp.parked, rarID)
	} else {
		rp.parked[rarID] = ops
	}
}

// drain restores one tunnel's parked replay entries into its registration
// and applies its parked ops in generation order, in one batch, through
// the endpoint's idempotent replay ops, for as long as each extends the
// endpoint's generation by one — or, with gaps set, whatever the
// generation: flush's rule, for a feed that has ended. What belongs to a
// dead registration, and ops the endpoint already reflects (they came
// with the snapshot it was restored from), are dropped; what belongs to a
// registration not established yet stays parked, as does everything while
// the tunnel is absent.
func (rp *replayer) drain(rarID string, gaps bool) error {
	ops := rp.parked[rarID]
	t, ok := rp.b.tunnels.get(rarID)
	if !ok || len(ops) == 0 {
		return nil
	}
	// Replay entries first: the cache is not called under the endpoint's
	// lock.
	for _, op := range ops {
		if op.batch != nil && op.epoch == t.epoch {
			t.val.batches.restore(op.batch)
		}
	}
	slices.SortFunc(ops, func(x, y parkedOp) int { return cmp.Compare(x.Gen, y.Gen) })
	kept := ops[:0]
	var err error
	t.val.ep.Batch(func(tx tunnel.Tx) {
		for _, op := range ops {
			switch {
			case op.epoch < t.epoch:
				// a dead registration's: dropped
			case op.epoch > t.epoch:
				kept = append(kept, op)
			case op.batch != nil:
				// restored above
			case op.Gen <= tx.Gen():
				// already reflected: dropped
			case !gaps && op.Gen != tx.Gen()+1:
				kept = append(kept, op)
			case op.Action == "alloc":
				if err = tx.ReplayAlloc(op.SubFlowID, units.Bandwidth(op.Bandwidth), op.Gen); err != nil {
					return
				}
			case op.Action == "release":
				tx.ReplayRelease(op.SubFlowID, op.Gen)
			}
		}
	})
	rp.park(rarID, kept)
	return err
}

// flush ends a feed: nothing more is coming that could fill a generation
// gap (the record died with the process that was to emit it) or establish
// a tunnel, so what is still parked applies in generation order with gaps
// allowed, and what has no registration to apply to is dropped — the
// replay entry of a batch answered after its tunnel's removal included. It runs at
// the end of boot recovery and when a follower wins an election.
func (rp *replayer) flush() error {
	for rarID := range rp.parked {
		if err := rp.drain(rarID, true); err != nil {
			return err
		}
	}
	clear(rp.parked)
	return nil
}
