package bb

import (
	"context"
	"fmt"
	"log/slog"

	"e2eqos/internal/obs"
	"e2eqos/internal/signalling"
)

func (b *BB) handleCancel(peer signalling.Peer, payload *signalling.CancelPayload) *signalling.Message {
	b.m.cancels.Inc()
	// If the reserve that created the entry is still in flight (an
	// upstream hop gave up on it and is now cancelling), wait for it to
	// settle so its admission — and its recorded downstream hop — are
	// visible to cancel; then remove that registration, unless another
	// cancel got there first.
	e, ok := b.routes.get(payload.RARID)
	if ok {
		<-e.done
		e, ok = b.routes.remove(payload.RARID, e.epoch)
	}
	if !ok {
		return peer.Reply(signalling.ResultPayload{Reason: fmt.Sprintf("%s: unknown RAR %s", b.cfg.Domain, payload.RARID)})
	}
	// Journal the route removal even if the table cancel below fails:
	// the entry is gone from the live map either way, and a recovered
	// broker must agree.
	b.journalRARCancel(payload.RARID, e.epoch)
	// Tear the tunnel registration down, and its batches' replay cache
	// with it, before the table cancel can bail out: the route entry is
	// already gone, and a stale endpoint left behind would collide with a
	// re-establishment of the same RAR id. Tunnels and edge flows live
	// under the signed RAR id, whatever route-key salt this hop holds.
	base := baseRARID(payload.RARID)
	if t, _ := b.tunnels.get(base); t.val.ep != nil {
		if _, gone := b.tunnels.remove(base, t.epoch); gone {
			b.journalTunnelRemove(base, t.epoch)
		}
	}
	b.removeEdgeFlow(base)
	if err := b.table.Cancel(e.val.Handle); err != nil {
		return peer.Reply(signalling.ResultPayload{Reason: fmt.Sprintf("%s: %v", b.cfg.Domain, err)})
	}
	b.syncDataPlane()
	// Propagate downstream along the recorded legs, each under that
	// leg's own route key (best effort, under the call deadline: a dead
	// hop must not wedge the cancel chain). If the synchronous attempt
	// fails, hand the cancel to the persistent async path so hops below
	// the failure don't stay booked. Whatever a leg answered is read by
	// nobody.
	for _, leg := range e.val.Legs {
		resp, _, err := b.callPeer(leg.Next, &signalling.Message{
			Type:   signalling.MsgCancel,
			Cancel: &signalling.CancelPayload{RARID: leg.Key},
		})
		if err != nil {
			b.cancelDownstream(leg.Next, leg.Key)
		}
		signalling.Release(resp)
	}
	if b.log.Enabled(context.Background(), slog.LevelInfo) {
		b.log.Info("cancel: released reservation",
			obs.AttrRAR, payload.RARID, obs.AttrPeer, string(peer.DN), "handle", e.val.Handle)
	}
	// The cancel's own records (route removal, table cancel, tunnel
	// teardown) join the group commit before the caller hears back.
	b.replWaitCommit()
	b.maybeCheckpoint()
	return peer.Reply(signalling.ResultPayload{Granted: true, Handle: e.val.Handle})
}

// handleStatus answers what this hop holds for a RAR: a granted entry
// with its reservation, a denied one with the reason it recorded, one
// still being decided as in flight.
func (b *BB) handleStatus(peer signalling.Peer, payload *signalling.StatusPayload) *signalling.Message {
	e, ok := b.routes.get(payload.RARID)
	if !ok {
		return peer.Reply(signalling.ResultPayload{Reason: fmt.Sprintf("%s: unknown RAR %s", b.cfg.Domain, payload.RARID)})
	}
	if e.pending {
		return peer.Reply(signalling.ResultPayload{Reason: fmt.Sprintf("%s: RAR %s in flight", b.cfg.Domain, payload.RARID)})
	}
	if o := e.outcome; o != nil && o.Result != nil && !o.Result.Granted {
		return peer.Reply(signalling.ResultPayload{Reason: fmt.Sprintf("%s: RAR %s denied: %s", b.cfg.Domain, payload.RARID, o.Result.Reason)})
	}
	r, ok := b.table.Lookup(e.val.Handle)
	if !ok {
		return peer.Reply(signalling.ResultPayload{Reason: fmt.Sprintf("%s: handle %s vanished", b.cfg.Domain, e.val.Handle)})
	}
	return peer.Reply(signalling.ResultPayload{Granted: true, Handle: e.val.Handle, PolicyInfo: map[string]string{
		"status":    r.Status.String(),
		"bandwidth": r.Bandwidth.String(),
		"window":    r.Window.String(),
	}})
}
