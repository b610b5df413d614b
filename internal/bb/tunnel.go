package bb

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/signalling"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
)

// tunnelReg is one tunnel registration: the endpoint, the replay cache
// of the batches this end answered on it, and the Seqs of the batches it
// sent that are still in flight; both live and die with it. order is the
// registration's order lock: each pass over the endpoint holds it through
// the append of the pass's record, so the journal holds the endpoint's
// ops in generation order. It is never taken under the journal's lock or
// the endpoint's, and never held across a call to the peer or a commit
// wait.
type tunnelReg struct {
	ep      *tunnel.Endpoint
	batches *batchCache
	sending *inflight
	order   *sync.Mutex
}

func newTunnelReg(ep *tunnel.Endpoint) tunnelReg {
	return tunnelReg{ep: ep, batches: &batchCache{}, sending: &inflight{}, order: &sync.Mutex{}}
}

// registerTunnelDest records the tunnel endpoint at the destination
// domain; the authenticated source broker (the first BB on the path)
// is the only entity allowed to drive sub-flow allocations over the
// direct channel. A duplicate RAR id — the establishing reservation of
// a still-live tunnel — is an error the caller must surface as a
// denial, not swallow.
func (b *BB) registerTunnelDest(verified *core.VerifiedRequest, peer signalling.Peer) error {
	spec := verified.Spec
	sourceBB := peer.DN
	if len(verified.Path) > 1 {
		// [user, BB_src, ...]; a layer's DN is cut from the string copy of
		// the whole onion, which the endpoint must not keep alive.
		sourceBB = identity.DN(strings.Clone(string(verified.Path[1])))
	}
	ep, err := tunnel.NewEndpoint(spec.RARID, spec.Bandwidth, spec.Window, sourceBB, spec.User)
	if err != nil {
		return err
	}
	return b.registerTunnel(ep)
}

// registerTunnelSource records the tunnel endpoint at the source
// domain, remembering the destination broker from the signed
// approvals so sub-flow requests can go directly to it.
func (b *BB) registerTunnelSource(spec *core.Spec, result *signalling.ResultPayload) error {
	var destBB identity.DN
	for _, a := range result.Approvals {
		if a.Domain == spec.DestDomain && a.Granted {
			destBB = identity.DN(strings.Clone(string(a.BBDN))) // not the result frame's text
			break
		}
	}
	ep, err := tunnel.NewEndpoint(spec.RARID, spec.Bandwidth, spec.Window, destBB, spec.User)
	if err != nil {
		return err
	}
	return b.registerTunnel(ep)
}

// registerTunnel registers the endpoint under a fresh epoch — duplicate
// RAR ids are refused, and leave the endpoint untouched — and journals
// the establishment. Until it settles, the registration's placeholder
// reads as no tunnel.
func (b *BB) registerTunnel(ep *tunnel.Endpoint) error {
	e, dup := b.tunnels.begin(ep.RARID, b.mintEpoch)
	if dup {
		return fmt.Errorf("tunnel: %s already registered", ep.RARID)
	}
	ep.Epoch = e.epoch
	b.tunnels.settle(e, newTunnelReg(ep), nil)
	b.journalTunnel(ep)
	close(e.done)
	return nil
}

// tunnelFor resolves a tunnel registration and checks that the peer is
// authorized on it: only the broker authenticated during establishment
// (or the tunnel owner, for the source side) may drive sub-flows.
func (b *BB) tunnelFor(peer signalling.Peer, rarID string) (tunnelReg, string) {
	t, _ := b.tunnels.get(rarID)
	if t.val.ep == nil {
		return tunnelReg{}, fmt.Sprintf("%s: no tunnel %s", b.cfg.Domain, rarID)
	}
	<-t.done // the registration's record precedes its batches'
	if peer.DN != t.val.ep.PeerBB && peer.DN != t.val.ep.Owner {
		return tunnelReg{}, fmt.Sprintf("%s: %s is not authorized on tunnel %s", b.cfg.Domain, peer.DN, rarID)
	}
	return t.val, ""
}

// handleTunnelBatch applies a batch of sub-flow ops, one or many, at
// this endpoint. Batches are idempotent: the first copy applies the ops,
// journals one record (applied ops + outcome) and caches the outcome; a
// retransmission with the same sender and Seq — including one racing the
// original mid-flight — gets the recorded outcome instead of a second
// application, until the sender acknowledges it. From then on a copy is
// a stale batch, refused without being applied; so is a batch that
// reuses a held Seq for other ops.
func (b *BB) handleTunnelBatch(peer signalling.Peer, payload *signalling.TunnelBatchPayload) *signalling.Message {
	t0 := time.Now()
	err := payload.Validate()
	if err == nil && payload.Seq == 0 {
		err = fmt.Errorf("%s: batch without seq", b.cfg.Domain)
	}
	if err != nil {
		b.recordBatchEvent(payload, len(payload.Ops), obs.VerdictDenied, err.Error(), t0)
		return signalling.ErrorResult(err.Error())
	}
	t, reason := b.tunnelFor(peer, payload.TunnelRARID)
	if t.ep == nil {
		b.recordBatchEvent(payload, len(payload.Ops), obs.VerdictDenied, reason, t0)
		return signalling.ErrorResult(reason)
	}
	ep := t.ep
	// A batch racing its tunnel's teardown registers in a registration
	// that is already gone, and its entry goes with it.
	sum := opsSum(payload.Ops)
	e, dup, err := t.batches.begin(peer.DN, payload.Seq, payload.Acked, sum)
	if err != nil {
		b.m.tunnelBatchesStale.Inc()
		what := "stale batch"
		if err == errSeqReused {
			what = "seq reused by batch"
		}
		reason := fmt.Sprintf("%s: %s %d from %s on tunnel %s: %v", b.cfg.Domain, what, payload.Seq, peer.DN, payload.TunnelRARID, err)
		b.recordBatchEvent(payload, len(payload.Ops), obs.VerdictDenied, reason, t0)
		return signalling.ErrorResult(reason)
	}
	if dup {
		resp := e.replay()
		b.m.tunnelBatchReplays.Inc()
		b.log.Info("tunnel: replaying recorded batch outcome",
			obs.AttrRAR, payload.TunnelRARID, obs.AttrPeer, string(peer.DN), "seq", payload.Seq)
		if resp != nil {
			return resp
		}
		return signalling.ErrorResult(fmt.Sprintf("%s: batch %d settled without outcome", b.cfg.Domain, payload.Seq))
	}
	// The whole op list applies in one pass under one acquisition of the
	// endpoint's lock. A fully granted batch, the common case, builds no
	// per-op state: results exists from the first denial on (the ops
	// before it filled in as granted), applied only when there is a
	// journal to write it to, and the counters move once per batch, after
	// the pass. The ids alias the decoded frame (DESIGN.md §6.5), so the
	// two places that keep one past this request, the endpoint's map and
	// the recorded outcome, clone it.
	var results []signalling.TunnelOpResult
	var applied []tunnelOpRec
	if b.journal != nil {
		applied = make([]tunnelOpRec, 0, len(payload.Ops))
	}
	var allocs, releases, denied int
	t.order.Lock()
	ep.Batch(func(tx tunnel.Tx) {
		for i := range payload.Ops {
			op := &payload.Ops[i]
			rec := tunnelOpRec{Action: "release", SubFlowID: op.SubFlowID}
			var err error
			if op.Action == signalling.OpAlloc {
				rec.Action, rec.Bandwidth = "alloc", op.Bandwidth
				rec.Gen, err = tx.Allocate(strings.Clone(op.SubFlowID), units.Bandwidth(op.Bandwidth))
			} else {
				_, rec.Gen, err = tx.Release(op.SubFlowID)
			}
			if err != nil {
				if results == nil {
					results = make([]signalling.TunnelOpResult, len(payload.Ops))
					for k := range payload.Ops[:i] {
						results[k] = signalling.TunnelOpResult{SubFlowID: strings.Clone(payload.Ops[k].SubFlowID), Granted: true}
					}
				}
				results[i] = signalling.TunnelOpResult{SubFlowID: strings.Clone(op.SubFlowID), Reason: err.Error()}
				denied++
				continue
			}
			if results != nil {
				results[i] = signalling.TunnelOpResult{SubFlowID: strings.Clone(op.SubFlowID), Granted: true}
			}
			if op.Action == signalling.OpAlloc {
				allocs++
			} else {
				releases++
			}
			if b.journal != nil {
				applied = append(applied, rec)
			}
		}
	})
	b.m.tunnelAllocs.Add(int64(allocs))
	b.m.tunnelReleases.Add(int64(releases))
	b.m.tunnelDenied.Add(int64(denied))
	// Dense success path: a fully-granted batch answers with the single
	// granted bit — the sender knows its own op list, so per-op results
	// only enumerate when some op was denied. On large batches the
	// results array would otherwise dominate the response frame.
	resp := &signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{Granted: denied == 0}}
	if denied > 0 {
		resp.Result.BatchResults = results
		resp.Result.Reason = fmt.Sprintf("%s: %d/%d ops denied", b.cfg.Domain, denied, len(results))
	}
	// Record the outcome, then journal it before releasing duplicate
	// waiters, so a retransmission never observes an unjournaled
	// application — and, in a replica group, withhold it until a
	// majority holds the record. The order lock, taken before the pass,
	// is held through the append.
	low := t.batches.settle(peer.DN, e, resp)
	b.journalTunnelBatch(ep, tunnelBatchRec{Sender: peer.DN, Seq: payload.Seq, Low: low, Sum: sum, Ops: applied, Outcome: resp})
	t.order.Unlock()
	b.replWaitCommit()
	close(e.done)
	b.m.tunnelBatches.Inc()
	b.m.tunnelBatchSeconds.ObserveSince(t0)
	verdict := obs.VerdictGranted
	if denied > 0 {
		verdict = obs.VerdictDenied
	}
	b.recordBatchEvent(payload, len(payload.Ops), verdict, resp.Result.Reason, t0)
	b.maybeCheckpoint()
	return resp
}

// AllocateTunnelFlow allocates one sub-flow at both ends of the tunnel:
// a TunnelBatch of one op. Intermediate domains are not contacted.
func (b *BB) AllocateTunnelFlow(tunnelRARID, subFlowID string, bw units.Bandwidth, user identity.DN) error {
	return b.tunnelOp(tunnelRARID, signalling.TunnelOp{Action: signalling.OpAlloc, SubFlowID: subFlowID, Bandwidth: int64(bw)}, user)
}

// ReleaseTunnelFlow frees one sub-flow at both ends.
func (b *BB) ReleaseTunnelFlow(tunnelRARID, subFlowID string) error {
	return b.tunnelOp(tunnelRARID, signalling.TunnelOp{Action: signalling.OpRelease, SubFlowID: subFlowID}, "")
}

// tunnelOp runs a batch of one and turns its one result into an error.
func (b *BB) tunnelOp(tunnelRARID string, op signalling.TunnelOp, user identity.DN) error {
	results, err := b.TunnelBatch(tunnelRARID, []signalling.TunnelOp{op}, user)
	if err != nil {
		return err
	}
	if !results[0].Granted {
		return fmt.Errorf("bb %s: sub-flow %s of %s refused: %s", b.cfg.Domain, op.Action, op.SubFlowID, results[0].Reason)
	}
	return nil
}

// TunnelBatch is the source-side sub-flow API, the only one: apply the
// alloc/release ops locally, ship the locally-successful subset to the
// destination in one MsgTunnelBatch, and reconcile — an op succeeds only
// when both ends applied it; local halves of remotely-denied ops are
// rolled back (a denied alloc is released, a denied release is
// re-admitted with its original bandwidth). A transport failure rolls
// back every local op; callPeer retransmits under one Seq, which the
// destination's replay cache answers without applying twice. The Seq is
// minted from the broker's epoch counter under the endpoint's lock, so
// it ascends per tunnel, with gaps. Booting from the journal and winning
// an election fence the counter past everything minted before, so no
// source mints a Seq twice, even one whose journal lost the records of
// batches that had left (DESIGN.md §6.5). The batch
// acknowledges everything below the lowest Seq still in flight. With a
// journal the source writes what it applied the way the destination
// does, one record per batch: the local halves before the call leaves,
// the undone ones (if any) after it, each pass holding the registration's
// order lock through its record. The returned results are in op order.
func (b *BB) TunnelBatch(tunnelRARID string, ops []signalling.TunnelOp, user identity.DN) ([]signalling.TunnelOpResult, error) {
	t0 := time.Now()
	t, _ := b.tunnels.get(tunnelRARID)
	ep := t.val.ep
	if ep == nil {
		return nil, fmt.Errorf("bb %s: no tunnel %s", b.cfg.Domain, tunnelRARID)
	}
	<-t.done // the registration's record precedes its batches'
	order := t.val.order
	payload := &signalling.TunnelBatchPayload{
		TunnelRARID: tunnelRARID,
		User:        user,
		Ops:         ops,
	}
	// The op list is checked before the local pass mints the Seq.
	if err := payload.Validate(); err != nil {
		return nil, err
	}
	// Source-side batches enter the network here, so this is where the
	// flight-recorder dice roll happens; the decision and trace id ride
	// the payload to the far endpoint.
	if b.sampler.Sample() {
		payload.Sampled = true
		payload.TraceID = obs.NewTraceID()
	}
	results := make([]signalling.TunnelOpResult, len(ops))
	// Local halves first, in one batch; only locally-admitted ops travel
	// to the peer. While every op is admitted that is the caller's own
	// slice: remote and remoteIdx (the op index of each travelling op)
	// exist from the first local denial on, and applied, the journal's op
	// list, only when there is a journal. A pass that applied anything
	// mints the batch's Seq and puts it in flight.
	var remote []signalling.TunnelOp
	var remoteIdx []int
	var released []units.Bandwidth // by op index: undo data for remote-denied releases
	var applied []tunnelOpRec
	if b.journal != nil {
		applied = make([]tunnelOpRec, 0, len(ops))
	}
	sending := t.val.sending
	order.Lock()
	ep.Batch(func(tx tunnel.Tx) {
		gen := tx.Gen()
		for i, op := range ops {
			results[i].SubFlowID = op.SubFlowID
			rec := tunnelOpRec{Action: "release", SubFlowID: op.SubFlowID}
			var err error
			if op.Action == signalling.OpAlloc {
				rec.Action, rec.Bandwidth = "alloc", op.Bandwidth
				rec.Gen, err = tx.Allocate(op.SubFlowID, units.Bandwidth(op.Bandwidth))
			} else {
				var bw units.Bandwidth
				if bw, rec.Gen, err = tx.Release(op.SubFlowID); err == nil {
					if released == nil {
						released = make([]units.Bandwidth, len(ops))
					}
					released[i] = bw
				}
			}
			if err != nil {
				results[i].Reason = err.Error()
				if remoteIdx == nil {
					remote = append(make([]signalling.TunnelOp, 0, len(ops)-1), ops[:i]...)
					remoteIdx = make([]int, i, len(ops)-1)
					for k := range remoteIdx {
						remoteIdx[k] = k
					}
				}
				continue
			}
			if remoteIdx != nil {
				remote = append(remote, op)
				remoteIdx = append(remoteIdx, i)
			}
			if b.journal != nil {
				applied = append(applied, rec)
			}
		}
		if tx.Gen() > gen {
			payload.Seq = b.mintEpoch()
			payload.Acked = sending.send(payload.Seq)
		}
	})
	sent := len(ops)
	if remoteIdx != nil {
		payload.Ops, sent = remote, len(remote)
	}
	b.m.tunnelDenied.Add(int64(len(ops) - sent))
	if sent == 0 {
		// Every op failed locally: nothing travelled, the batch settles
		// here as a denial.
		order.Unlock()
		b.recordBatchEvent(payload, len(ops), obs.VerdictDenied, firstReason(results), t0)
		return results, nil
	}
	// The source's record carries the Seq, so a follower's epoch counter
	// keeps up with its leader's, but no sender and no outcome: it
	// restores no replay entry. In a replica group the batch leaves once a
	// majority holds it, so a promoted follower holds the local halves the
	// destination is about to apply.
	b.journalTunnelBatch(ep, tunnelBatchRec{Seq: payload.Seq, Ops: applied})
	order.Unlock()
	b.replWaitCommit()
	resp, _, err := b.callPeer(ep.PeerBB, &signalling.Message{Type: signalling.MsgTunnelBatch, TunnelBatch: payload})
	if err == nil && resp.Result == nil {
		err = fmt.Errorf("destination sent no result")
	}
	// Reconcile in one batch: an op the destination granted is done, and
	// the local half of every other travelling op rolls back — all of
	// them after a transport failure, which leaves the destination's state
	// unknown. A batch whose every attempt failed in transport may still
	// have been applied at the destination; nothing here takes that back
	// (DESIGN.md §6.5).
	var allocs, releases, denied int
	var undone []tunnelOpRec
	order.Lock()
	ep.Batch(func(tx tunnel.Tx) {
		sending.settled(payload.Seq)
		for k := 0; k < sent; k++ {
			i := k // of the k-th travelling op, in ops
			if remoteIdx != nil {
				i = remoteIdx[k]
			}
			if err == nil {
				var rr *signalling.TunnelOpResult
				if k < len(resp.Result.BatchResults) {
					rr = &resp.Result.BatchResults[k]
				}
				if resp.Result.Granted || (rr != nil && rr.Granted) {
					results[i].Granted = true
					if ops[i].Action == signalling.OpAlloc {
						allocs++
					} else {
						releases++
					}
					continue
				}
				// Destination refused (or the whole batch was refused before
				// any op ran, leaving no per-op results).
				results[i].Reason = resp.Result.Reason
				if rr != nil && rr.Reason != "" {
					results[i].Reason = rr.Reason
				}
				denied++
			}
			rec := tunnelOpRec{Action: "release", SubFlowID: ops[i].SubFlowID}
			var uerr error
			if ops[i].Action == signalling.OpAlloc {
				_, rec.Gen, uerr = tx.Release(rec.SubFlowID)
			} else {
				rec.Action, rec.Bandwidth = "alloc", int64(released[i])
				rec.Gen, uerr = tx.Allocate(rec.SubFlowID, released[i])
			}
			if uerr == nil && b.journal != nil {
				undone = append(undone, rec)
			}
		}
	})
	b.journalTunnelBatch(ep, tunnelBatchRec{Ops: undone})
	order.Unlock()
	if err != nil {
		b.recordBatchEvent(payload, len(ops), obs.VerdictError, err.Error(), t0)
		return nil, fmt.Errorf("bb %s: tunnel batch at destination: %w", b.cfg.Domain, err)
	}
	b.m.tunnelAllocs.Add(int64(allocs))
	b.m.tunnelReleases.Add(int64(releases))
	b.m.tunnelDenied.Add(int64(denied))
	b.m.tunnelBatches.Inc()
	if b.cfg.Recorder != nil {
		verdict := obs.VerdictGranted
		for _, r := range results {
			if !r.Granted {
				verdict = obs.VerdictDenied
				break
			}
		}
		b.recordBatchEvent(payload, len(ops), verdict, firstReason(results), t0)
	}
	return results, nil
}

// firstReason surfaces the first per-op denial reason of a batch.
func firstReason(results []signalling.TunnelOpResult) string {
	for _, r := range results {
		if !r.Granted && r.Reason != "" {
			return r.Reason
		}
	}
	return ""
}

// Tunnel exposes a tunnel endpoint for inspection.
func (b *BB) Tunnel(rarID string) (*tunnel.Endpoint, bool) {
	t, _ := b.tunnels.get(rarID)
	return t.val.ep, t.val.ep != nil
}
