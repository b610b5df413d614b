package bb

import (
	"fmt"
	"strings"

	"e2eqos/internal/journal"
	"e2eqos/internal/saga"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
)

// replayer turns journaled state back into broker state, and is the only
// thing that does (DESIGN.md §6.4, "Replay: one engine, two feeds"). Boot
// recovery feeds it the snapshot and WAL tail a previous incarnation left;
// a replication follower feeds it the snapshots and frames its leader
// streams. Both install a snapshot in place and apply records one at a
// time in journal order, so a broker promoted from a stream and one
// booted from the journal that stream wrote hold the same state by
// construction.
//
// Route and tunnel (re)registrations and removals go to the registries,
// which own the epoch rules; table records go through
// resv.Table.ApplyRecord. Every journaled object writes its records in the
// order it applied them (the table's and each tunnel registration's
// order lock), and a registration's bb.tunnel record precedes its batch
// records, so a batch record applies at once: generations are dense per
// endpoint, and an op is either reflected already, the next one, or a
// sign the journal was not written by this build's rules.
//
// Not safe for concurrent use: New runs it before the broker is shared,
// a follower under applyMu.
type replayer struct {
	b *BB
}

func newReplayer(b *BB) *replayer {
	return &replayer{b: b}
}

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
	if err := rp.b.table.ApplyRecord(r); err != nil {
		return err
	}
	b := rp.b
	switch r.Op {
	case opRAR:
		var rr rarRec
		if err := rr.DecodeBinary(r.Data); err != nil {
			return r.PayloadError(err)
		}
		b.noteEpoch(rr.Epoch)
		b.routes.register(rr.RARID, rr.Epoch, rr.route, rr.Outcome)
	case opRARCancel:
		key, epoch, err := decodeRemoval(r.Data)
		if err != nil {
			return r.PayloadError(err)
		}
		b.noteEpoch(epoch)
		b.routes.evict(key, epoch)
	case opTunnel:
		var ts tunnel.EndpointSnapshot
		if err := ts.DecodeBinary(r.Data); err != nil {
			return r.PayloadError(err)
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
		b.tunnels.register(ts.RARID, ts.Epoch, newTunnelReg(ep), nil)
	case opTunnelRemove:
		key, epoch, err := decodeRemoval(r.Data)
		if err != nil {
			return r.PayloadError(err)
		}
		b.noteEpoch(epoch)
		b.tunnels.evict(key, epoch)
	case opTunnelBatch:
		var br tunnelBatchRec
		if err := br.DecodeBinary(r.Data); err != nil {
			return r.PayloadError(err)
		}
		return rp.applyBatch(&br)
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

// applyBatch replays one batch record onto the registration of its
// epoch: the replay entry, if the record carries one, then the ops, in
// one batch. A record whose registration is not held — removed, replaced
// by a later epoch, or cut off with its tunnel by a cancel — is dropped.
// An op at or below the endpoint's generation came with the snapshot and
// is skipped; an op at the next generation applies; any other op is an
// error: the endpoint's journal does not hold the ops before it.
func (rp *replayer) applyBatch(br *tunnelBatchRec) error {
	if br.Sender == "" {
		// The source's record: its Seq came off the epoch counter.
		rp.b.noteEpoch(br.Seq)
	}
	t, ok := rp.b.tunnels.at(br.RARID, br.Epoch)
	if !ok {
		return nil
	}
	// The cache is not called under the endpoint's lock.
	if br.Sender != "" {
		t.val.batches.restore(br)
	}
	// The alloc ops' ids are copied once, into the Keys the endpoint cuts
	// its keys from; ReplayAlloc takes each op's id, reflected or not.
	keys := tunnel.NewKeys(len(br.Ops), func(i int) (string, bool) { return br.Ops[i].SubFlowID, br.Ops[i].Action == "alloc" })
	var err error
	t.val.ep.Batch(func(tx tunnel.Tx) {
		for _, op := range br.Ops {
			if op.Gen > tx.Gen()+1 {
				err = fmt.Errorf("tunnel %s: %s of sub-flow %q at generation %d does not follow the endpoint's generation %d",
					br.RARID, op.Action, op.SubFlowID, op.Gen, tx.Gen())
				return
			}
			switch op.Action {
			case "alloc":
				if err = tx.ReplayAlloc(keys, units.Bandwidth(op.Bandwidth), op.Gen); err != nil {
					return
				}
			case "release":
				tx.ReplayRelease(op.SubFlowID, op.Gen)
			}
		}
	})
	return err
}
