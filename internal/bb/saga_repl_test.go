package bb_test

import (
	"path/filepath"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/experiment"
	"e2eqos/internal/journal"
	"e2eqos/internal/obs"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// sagaFollower is a follower of a group whose leader is dead, driven by
// the test in the leader's place: journal frames and snapshots reach it
// through the same handler the leader's pump calls. Saga records are
// assembled field by field here, so the tests also hold the broker to
// the layout DESIGN.md §6.6 documents.
type sagaFollower struct {
	t      *testing.T
	w      *experiment.World
	b      *bb.BB
	events string
	handle string // the one granted reservation in the follower's table
}

const sagaDomain = "Domain0"

// newSagaFollower grants one reservation through a three-replica
// Domain0, waits for the followers to hold it, kills the leader and
// returns replica 1.
func newSagaFollower(t *testing.T) *sagaFollower {
	t.Helper()
	events := t.TempDir()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:   2,
		Replicas:     3,
		StateDir:     t.TempDir(),
		FsyncPolicy:  "always",
		CallTimeout:  time.Second,
		RetryBackoff: time.Millisecond,
		EnableObs:    true,
		EventsDir:    events,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 5 * units.Mbps}))
	if err != nil || !res.Granted {
		t.Fatalf("reserve: res=%+v err=%v", res, err)
	}
	waitReplicated(t, w, sagaDomain, []int{0, 1, 2})
	if _, err := w.KillLeader(sagaDomain); err != nil {
		t.Fatal(err)
	}
	f := &sagaFollower{t: t, w: w, b: w.ReplicaBB(sagaDomain, 1), events: filepath.Join(events, sagaDomain, "r1")}
	for _, r := range f.b.Table().All() {
		if r.Status == resv.Granted {
			f.handle = r.Handle
		}
	}
	if f.handle == "" {
		t.Fatal("follower holds no granted reservation")
	}
	return f
}

// stream delivers one leader message for the term after the dead
// leader's.
func (f *sagaFollower) stream(p signalling.JournalStreamPayload) {
	f.t.Helper()
	if !f.offer(p) {
		f.t.Fatal("follower refused the stream")
	}
}

// offer delivers one leader message as stream does and reports whether
// the follower took it.
func (f *sagaFollower) offer(p signalling.JournalStreamPayload) bool {
	p.Domain, p.Term, p.LeaderID = sagaDomain, 2, 0
	resp := f.b.Handle(signalling.Peer{DN: f.b.DN()}, &signalling.Message{Type: signalling.MsgJournalStream, JournalStream: &p})
	return resp.Result != nil && resp.Result.Granted
}

// openSaga streams the one record of a saga that registered one step
// and never settled: saga.step, step 1, carrying kind and data — the
// first step opens the saga.
func (f *sagaFollower) openSaga(id, kind string, data []byte) {
	f.t.Helper()
	step := wire.AppendString(nil, 1, id)
	step = wire.AppendInt(step, 2, 1)
	step = wire.AppendString(step, 3, kind)
	step = wire.AppendBytes(step, 4, data)
	frame, err := journal.EncodeRecord("saga.step", journal.RawBinary(step))
	if err != nil {
		f.t.Fatal(err)
	}
	f.stream(signalling.JournalStreamPayload{FromSeq: f.b.ReplicationStatus().AppliedSeq, Records: [][]byte{frame}})
	if live := f.metric("bb_sagas_live"); live != 1 {
		f.t.Fatalf("bb_sagas_live = %v after the saga's records, want 1", live)
	}
}

// releaseArg is the "release" compensation's argument: 2=key 3=handle.
func (f *sagaFollower) releaseArg() []byte {
	return wire.AppendString(wire.AppendString(nil, 2, "RAR-split"), 3, f.handle)
}

func (f *sagaFollower) metric(name string) float64 {
	return f.b.MetricsRegistry().Snapshot()[name]
}

func (f *sagaFollower) promote() {
	f.t.Helper()
	if err := f.w.PromoteReplica(sagaDomain, 1); err != nil {
		f.t.Fatalf("promote: %v", err)
	}
}

func (f *sagaFollower) granted() bool {
	r, ok := f.b.Table().Lookup(f.handle)
	return ok && r.Status == resv.Granted
}

func (f *sagaFollower) waitFor(what string, cond func() bool) {
	f.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			f.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFollowerReplaysSagaRecordsAndResumes: the leader's open saga
// reaches a follower as binary journal records; when the leader dies
// before deciding it, the promoted follower presumes abort and pays the
// debt — here, releasing the admission the saga held.
func TestFollowerReplaysSagaRecordsAndResumes(t *testing.T) {
	f := newSagaFollower(t)
	f.openSaga("split:RAR-split#9", "release", f.releaseArg())
	f.promote()
	f.waitFor("the release compensation", func() bool { return !f.granted() })
	f.waitFor("the saga to close", func() bool { return f.metric("bb_sagas_live") == 0 })
	if n := f.metric("bb_saga_compensations_total"); n != 1 {
		t.Errorf("bb_saga_compensations_total = %v, want 1", n)
	}
}

// TestFollowerResyncDropsSagasTheLeaderSettled: a follower holding an
// open saga falls behind and resynchronises from a snapshot cut after
// the leader committed that saga. The snapshot carries no sagas, so the
// follower must hold none — or its promotion presumes the committed
// saga aborted and releases a reservation the caller was granted.
func TestFollowerResyncDropsSagasTheLeaderSettled(t *testing.T) {
	f := newSagaFollower(t)
	settled, err := f.b.StateDigest() // no saga live: what the leader held after its commit
	if err != nil {
		t.Fatal(err)
	}
	f.openSaga("split:RAR-split#9", "release", f.releaseArg())
	f.stream(signalling.JournalStreamPayload{Snapshot: settled, SnapSeq: f.b.ReplicationStatus().AppliedSeq})
	if live := f.metric("bb_sagas_live"); live != 0 {
		t.Errorf("bb_sagas_live = %v after installing a saga-free snapshot, want 0", live)
	}
	f.promote()
	// Resume counts the sagas it aborts before Promote returns.
	if n := f.metric("bb_sagas_aborted_total"); n != 0 {
		t.Errorf("bb_sagas_aborted_total = %v after promotion, want 0: the leader had committed", n)
	}
	time.Sleep(20 * time.Millisecond) // room for a compensation that must not exist
	if !f.granted() {
		t.Error("promotion released a reservation whose saga the leader had committed")
	}
}

// TestUnpayableCompensationIsAbandonedLoudly: a journaled step whose
// argument does not decode can never be paid. It must end as every
// other unpaid debt does — bb_rollbacks_abandoned_total, an error log
// and a forced rollback-abandoned event, the saga still open — not be
// journaled as settled.
func TestUnpayableCompensationIsAbandonedLoudly(t *testing.T) {
	for _, kind := range []string{"cancel", "release"} {
		t.Run(kind, func(t *testing.T) {
			f := newSagaFollower(t)
			f.openSaga("cancel:RAR-x#9", kind, []byte{0x0a, 0xff}) // a length running past the end
			f.promote()
			f.waitFor("the abandonment", func() bool { return f.metric("bb_rollbacks_abandoned_total") == 1 })
			if n := f.metric("bb_saga_compensations_total"); n != 0 {
				t.Errorf("bb_saga_compensations_total = %v, want 0: nothing was paid", n)
			}
			if live := f.metric("bb_sagas_live"); live != 1 {
				t.Errorf("bb_sagas_live = %v, want 1: the debt is still owed", live)
			}
			found := false
			if err := obs.ReadEvents(f.events, func(e *obs.Event) bool {
				found = found || e.Kind == obs.EventRollbackAbandoned
				return !found
			}); err != nil {
				t.Fatalf("reading flight recorder: %v", err)
			}
			if !found {
				t.Error("no rollback-abandoned event in the flight recorder")
			}
		})
	}
}

// TestFollowerRefusesUnknownSagaOp: a saga record of an op this build
// does not know — a leader of an older build streams saga.commit — is
// refused, not skipped: skipping a commit would leave the saga open, and
// a promotion would presume it aborted and release a granted
// reservation.
func TestFollowerRefusesUnknownSagaOp(t *testing.T) {
	f := newSagaFollower(t)
	frame, err := journal.EncodeRecord("saga.bogus", journal.RawBinary(wire.AppendString(nil, 1, "split:RAR-split#9")))
	if err != nil {
		t.Fatal(err)
	}
	errs := f.metric("bb_repl_stream_errors_total")
	applied := f.b.ReplicationStatus().AppliedSeq
	p := signalling.JournalStreamPayload{Domain: sagaDomain, Term: 2, FromSeq: applied, Records: [][]byte{frame}}
	resp := f.b.Handle(signalling.Peer{DN: f.b.DN()}, &signalling.Message{Type: signalling.MsgJournalStream, JournalStream: &p})
	if resp.Result == nil || resp.Result.Granted {
		t.Fatalf("follower accepted a saga.bogus record: %+v", resp.Result)
	}
	if n := f.metric("bb_repl_stream_errors_total"); n != errs+1 {
		t.Errorf("bb_repl_stream_errors_total = %v, want %v", n, errs+1)
	}
	if now := f.b.ReplicationStatus().AppliedSeq; now != applied {
		t.Errorf("applied sequence moved %d -> %d on a refused record", applied, now)
	}
}
