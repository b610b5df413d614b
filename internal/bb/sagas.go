package bb

import (
	"fmt"

	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/saga"
	"e2eqos/internal/signalling"
)

// Saga integration: the broker's two compensation kinds, wired into
// the reusable coordinator in internal/saga. "cancel" undoes a
// downstream forward whose outcome is unknown or must be withdrawn;
// "release" undoes an optimistic local admission. Both are
// journal-backed through the broker's WAL, so a crashed broker resumes
// its rollback debt on recovery.

// compArg is the argument of either compensation (encoded in
// binwire.go): "cancel" withdraws the route Key at the downstream Peer,
// "release" cancels the local admission held under Handle for Key.
type compArg struct {
	Peer   identity.DN
	Key    string
	Handle string
}

// newSagaCoordinator builds the broker's coordinator with both
// executors registered. The journal attaches later (after recovery).
func (b *BB) newSagaCoordinator() *saga.Coordinator {
	c := saga.New(saga.Options{
		Backoff:   b.cfg.RetryBackoff,
		OnAborted: func(string) { b.m.sagasAborted.Inc() },
		OnCompensated: func(id string, step saga.Step) {
			b.m.sagaCompensations.Inc()
			b.log.Info("saga: compensation settled", "saga", id, "kind", step.Kind)
		},
		OnAbandoned: func(id string, step saga.Step) { b.compAbandoned(id, step) },
	})
	c.RegisterExec("cancel", b.execCancelComp)
	c.RegisterExec("release", b.execReleaseComp)
	return c
}

// execCancelComp sends one cancel toward the peer. Transport failures
// schedule a retry; any protocol-level response — including a refusal
// for a key the peer never saw — counts as settled, exactly like the
// old best-effort rollback cancel.
//
// An argument that does not decode cannot be paid. Saying so with an
// error lets the coordinator spend its attempts and then abandon the
// step out loud (compAbandoned), the debt still on the journal;
// returning nil would write it off as settled.
func (b *BB) execCancelComp(data []byte) error {
	var c compArg
	if err := c.DecodeBinary(data); err != nil || c.Peer == "" || c.Key == "" {
		return fmt.Errorf("bb: unpayable cancel compensation % x: %v", data, err)
	}
	client, err := b.clientFor(c.Peer)
	if err != nil {
		return err
	}
	resp, err := client.Call(&signalling.Message{
		Type:   signalling.MsgCancel,
		Cancel: &signalling.CancelPayload{RARID: c.Key},
	}, b.cfg.CallTimeout)
	signalling.Release(resp) // whatever it says, the debt is settled
	if err != nil {
		b.dropClient(c.Peer, client)
		return err
	}
	b.log.Info("rollback cancel settled downstream",
		obs.AttrRAR, c.Key, obs.AttrPeer, string(c.Peer))
	return nil
}

// execReleaseComp cancels the local admission. An unknown handle means
// the admission is already gone (cancelled through another path, or
// never replayed) — settled either way.
func (b *BB) execReleaseComp(data []byte) error {
	var rc compArg
	if err := rc.DecodeBinary(data); err != nil || rc.Handle == "" {
		return fmt.Errorf("bb: unpayable release compensation % x: %v", data, err)
	}
	if err := b.table.Cancel(rc.Handle); err == nil {
		b.m.rollbacks.Inc()
		b.log.Info("saga: released local admission", obs.AttrRAR, rc.Key, "handle", rc.Handle)
	}
	b.syncDataPlane()
	return nil
}

// compAbandoned surfaces a compensation this incarnation gave up on
// after saga.Attempts tries: bandwidth below the failed hop may stay
// stranded until the window expires. The budget is deliberately larger
// than Config.MaxRetries: a stranded reservation costs real bandwidth,
// a redundant cancel is refused harmlessly. Counted, logged at error,
// and force-recorded — the journal still owes the debt, so a restarted
// broker retries it.
func (b *BB) compAbandoned(id string, step saga.Step) {
	b.m.rollbacksAbandoned.Inc()
	var arg compArg
	_ = arg.DecodeBinary(step.Data) // an unreadable argument is reported with empty fields
	key, peer := arg.Key, string(arg.Peer)
	b.log.Error("rollback cancel abandoned, downstream state unknown",
		obs.AttrRAR, key, obs.AttrPeer, peer, "saga", id, "attempts", saga.Attempts)
	if b.recorder != nil {
		b.m.eventsForced.Inc()
		b.appendEvent(&obs.Event{
			Kind:    obs.EventRollbackAbandoned,
			RARID:   key,
			Verdict: obs.VerdictError,
			Reason:  fmt.Sprintf("compensation %s to %s abandoned after %d attempts", step.Kind, peer, saga.Attempts),
		})
	}
}

// mintSagaID builds a unique saga id from the broker's epoch counter
// (epochs survive recovery, so restarted brokers never collide with
// journaled sagas).
func (b *BB) mintSagaID(prefix string) string {
	return fmt.Sprintf("%s#%d", prefix, b.mintEpoch())
}

// cancelDownstream hands a cancel that could not be propagated to the
// saga layer: a saga of one "cancel" step, born aborting, so the cancel
// is retried with backoff and, being journaled, survives a crash.
func (b *BB) cancelDownstream(dn identity.DN, key string) {
	var saga string
	b.owe(&saga, "cancel", compArg{Peer: dn, Key: key})
	b.sagas.Abort(saga)
}
