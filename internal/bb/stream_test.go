package bb_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/core"
	"e2eqos/internal/experiment"
	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// The pipelined journal stream (DESIGN.md §6.8) under scripted faults:
// a transport.Script picks out one frame or one acknowledgement of one
// follower's stream.

// streamScript decides the fault for one decoded message on the
// connection dialled to addr.
type streamScript func(addr string, send bool, m *signalling.Message) transport.FaultAction

// streamWorld builds a replicated world whose every broker dials
// through a scripted fault wrapper, and returns once every follower has
// joined its leader's stream. The script stays off until arm is set.
func streamWorld(t *testing.T, domains, replicas int, callTimeout time.Duration, script streamScript) (w *experiment.World, stateDir string, arm *atomic.Bool) {
	t.Helper()
	arm = new(atomic.Bool)
	stateDir = t.TempDir()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  domains,
		Replicas:    replicas,
		Capacity:    10_000 * units.Mbps,
		StateDir:    stateDir,
		FsyncPolicy: "never",
		CallTimeout: callTimeout,
		EnableObs:   true,
		WrapDialer: func(_ string, d transport.Dialer) transport.Dialer {
			return transport.NewFaultyDialer(d, func(addr string, send bool, raw []byte) transport.FaultAction {
				if !arm.Load() {
					return transport.FaultPass
				}
				m, err := signalling.DecodeMessage(raw)
				if err != nil {
					return transport.FaultPass
				}
				return script(addr, send, m)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	// Every stream starts with a snapshot; a test's faults and counts
	// begin after it.
	for _, d := range w.Domains {
		for i := 1; i < replicas; i++ {
			eventually(t, fmt.Sprintf("%s replica %d joins the stream", d, i), func() bool {
				return replMetric(w, d, i, "bb_repl_snapshots_installed_total") >= 1
			})
		}
	}
	return w, stateDir, arm
}

func replicaAddr(domain string, i int) string { return fmt.Sprintf("bb.%s.r%d", domain, i) }

func replMetric(w *experiment.World, domain string, i int, name string) float64 {
	return w.ReplicaBB(domain, i).MetricsRegistry().Snapshot()[name]
}

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// reserveLoad runs callers concurrent users, each making n reservations
// (so stream frames are in flight together), and returns what was
// granted. A caller stops at its first error when stopOnErr is set (the
// leader was killed under it); otherwise an error fails the test.
func reserveLoad(t *testing.T, w *experiment.World, callers, n int, stopOnErr bool) (grants []streamGrant) {
	t.Helper()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		u, err := w.NewUser(fmt.Sprintf("user%d", c), "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Close)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
				res, err := u.ReserveE2E(spec)
				if err != nil || !res.Granted {
					if !stopOnErr {
						t.Errorf("reserve: res=%+v err=%v", res, err)
					}
					return
				}
				mu.Lock()
				grants = append(grants, streamGrant{u, spec, res.Handle})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return grants
}

// lastOutcomeFrame re-frames the last settled RAR outcome in a replica's
// journal: a genuine stream frame, and an absolute record, so a follower
// that already holds it can apply it again without changing state.
// (Under the "never" fsync policy every append is written through, so
// the file is current without closing the journal.)
func lastOutcomeFrame(t *testing.T, stateDir, domain string, replica int) []byte {
	t.Helper()
	rec, err := journal.Recover(filepath.Join(stateDir, domain, fmt.Sprintf("r%d", replica)))
	if err != nil {
		t.Fatal(err)
	}
	for i := len(rec.Records) - 1; i >= 0; i-- {
		if r := rec.Records[i]; r.Op == "bb.rar" {
			frame, err := journal.AppendRecord(nil, r.Op, journal.RawBinary(r.Data))
			if err != nil {
				t.Fatal(err)
			}
			return frame
		}
	}
	t.Fatalf("no bb.rar record in the journal of %s replica %d", domain, replica)
	return nil
}

// streamGrant is one reservation a caller was told it holds.
type streamGrant struct {
	user   *experiment.User
	spec   *core.Spec
	handle string
}

// TestStreamPipelinedFaults drops, delays or duplicates one stream frame
// or one acknowledgement of a follower's stream while frames are in
// flight. In a two-replica group the commit sequence is the follower's
// acknowledgement, so it shows directly that a refused or unanswered
// frame never commits. Whatever the fault: every reserve is granted
// within the commit bound, the stream restarts from a snapshot exactly
// as often as stated, and the follower converges on the leader's state
// byte for byte. A lost frame restarts it once (the follower refuses
// the next frame, which no longer splices, or the answer never comes);
// so does a lost answer, which looks the same from the leader. A delay
// restarts nothing. Nor does a second copy: the follower refuses the
// copied frame as already applied and changes nothing, and the copy's
// answer — like a copied answer — finds its request already answered.
func TestStreamPipelinedFaults(t *testing.T) {
	isFrame := func(send bool, m *signalling.Message) bool {
		return send && m.Type == signalling.MsgJournalStream && len(m.JournalStream.Records) > 0
	}
	isAck := func(send bool, m *signalling.Message) bool {
		return !send && m.Type == signalling.MsgResult && m.Result.Granted && m.Result.AckSeq > 0
	}
	cases := []struct {
		name    string
		match   func(send bool, m *signalling.Message) bool
		action  transport.FaultAction
		delay   time.Duration // the script holds the message this long first
		resyncs float64
		refused bool // the follower refuses an out-of-splice frame
	}{
		{"drop-frame", isFrame, transport.FaultDrop, 0, 1, true},
		{"duplicate-frame", isFrame, transport.FaultDuplicate, 0, 0, true},
		{"delay-frame", isFrame, transport.FaultPass, 30 * time.Millisecond, 0, false},
		{"drop-ack", isAck, transport.FaultDrop, 0, 1, false},
		{"duplicate-ack", isAck, transport.FaultDuplicate, 0, 0, false},
		{"delay-ack", isAck, transport.FaultPass, 30 * time.Millisecond, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const domain = "Domain0"
			var w *experiment.World
			var matched atomic.Int64
			// limit is the highest sequence the follower can have
			// acknowledged on the faulted connection: everything before a
			// dropped frame, everything up to a duplicated one.
			var limit atomic.Int64
			limit.Store(-1)
			script := func(addr string, send bool, m *signalling.Message) transport.FaultAction {
				if addr != replicaAddr(domain, 1) {
					return transport.FaultPass
				}
				if send && m.Type == signalling.MsgJournalStream && len(m.JournalStream.Snapshot) > 0 {
					// The restart. Nothing past limit may have committed.
					if l := limit.Load(); l >= 0 {
						if c := w.ReplicaBB(domain, 0).ReplicationStatus().CommitSeq; c > l {
							t.Errorf("commitSeq %d at the restart, but only %d was ever acknowledged", c, l)
						}
					}
					return transport.FaultPass
				}
				if !tc.match(send, m) || matched.Add(1) != 3 {
					return transport.FaultPass
				}
				if p := m.JournalStream; p != nil {
					switch tc.action {
					case transport.FaultDrop:
						limit.Store(p.FromSeq)
					case transport.FaultDuplicate:
						limit.Store(p.FromSeq + int64(len(p.Records)))
					}
				}
				time.Sleep(tc.delay)
				return tc.action
			}
			w, _, arm := streamWorld(t, 1, 2, 250*time.Millisecond, script)
			arm.Store(true)

			reserveLoad(t, w, 4, 6, false)
			if matched.Load() < 3 {
				t.Fatalf("the load produced only %d matching messages", matched.Load())
			}
			eventually(t, fmt.Sprintf("%v stream restart(s)", tc.resyncs), func() bool {
				return replMetric(w, domain, 1, "bb_repl_snapshots_installed_total") >= 1+tc.resyncs
			})
			waitReplicated(t, w, domain, []int{0, 1})
			requireDigestsEqual(t, w, domain, []int{0, 1})
			eventually(t, "no stream message left unanswered", func() bool {
				return replMetric(w, domain, 0, "bb_repl_inflight_frames") == 0
			})

			if got := replMetric(w, domain, 0, "bb_repl_stream_resyncs_total"); got != tc.resyncs {
				t.Errorf("bb_repl_stream_resyncs_total = %v, want %v", got, tc.resyncs)
			}
			if got := replMetric(w, domain, 0, "bb_repl_snapshots_sent_total"); got != 1+tc.resyncs {
				t.Errorf("bb_repl_snapshots_sent_total = %v, want the first one and %v restart(s)", got, tc.resyncs)
			}
			if got := replMetric(w, domain, 1, "bb_repl_snapshots_installed_total"); got != 1+tc.resyncs {
				t.Errorf("follower installed %v snapshots, want %v", got, 1+tc.resyncs)
			}
			if got := replMetric(w, domain, 1, "bb_repl_stream_errors_total"); tc.refused != (got > 0) {
				t.Errorf("follower refused %v messages, refusal expected: %t", got, tc.refused)
			}
			if got := replMetric(w, domain, 0, "bb_repl_commit_timeouts_total"); got != 0 {
				t.Errorf("bb_repl_commit_timeouts_total = %v: a settle gave up on the commit gate", got)
			}
		})
	}
}

// TestStreamCommitNeedsMajority pins the majority rule and the commit
// bound. With one of two followers out of reach the other's
// acknowledgement still commits, at once. With the frames to both lost
// — heartbeats still get through, so acknowledgements keep arriving,
// but of nothing new — the commit sequence stays where it was: the
// leader's own copy is not a majority. The settle waits out the
// one-second bound, is counted, and the caller is served with local
// durability only.
func TestStreamCommitNeedsMajority(t *testing.T) {
	const domain = "Domain0"
	var blackhole [3]atomic.Bool
	script := func(addr string, send bool, m *signalling.Message) transport.FaultAction {
		for i := range blackhole {
			if send && addr == replicaAddr(domain, i) && blackhole[i].Load() &&
				m.Type == signalling.MsgJournalStream && len(m.JournalStream.Records) > 0 {
				return transport.FaultDrop
			}
		}
		return transport.FaultPass
	}
	w, _, arm := streamWorld(t, 1, 3, 10*time.Second, script)
	arm.Store(true)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	reserve := func() time.Duration {
		t.Helper()
		t0 := time.Now()
		res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps}))
		if err != nil || !res.Granted {
			t.Fatalf("reserve: res=%+v err=%v", res, err)
		}
		return time.Since(t0)
	}
	leader := w.ReplicaBB(domain, 0)

	blackhole[2].Store(true)
	if took := reserve(); took > 500*time.Millisecond {
		t.Errorf("reserve took %v with one of two followers answering, want a majority commit at once", took)
	}
	if got := replMetric(w, domain, 0, "bb_repl_commit_timeouts_total"); got != 0 {
		t.Fatalf("bb_repl_commit_timeouts_total = %v with a majority reachable", got)
	}
	if st := leader.ReplicationStatus(); st.CommitSeq != st.JournalSeq {
		t.Errorf("settled with commitSeq %d behind the journal at %d", st.CommitSeq, st.JournalSeq)
	}

	blackhole[1].Store(true)
	before := leader.ReplicationStatus().CommitSeq
	acks := replMetric(w, domain, 0, "bb_repl_acks_total")
	if took := reserve(); took < time.Second {
		t.Errorf("reserve settled after %v with no follower answering, before the one-second commit bound", took)
	}
	if got := replMetric(w, domain, 0, "bb_repl_commit_timeouts_total"); got < 1 {
		t.Errorf("bb_repl_commit_timeouts_total = %v after a settle outwaited the bound", got)
	}
	if st := leader.ReplicationStatus(); st.CommitSeq != before || st.CommitSeq >= st.JournalSeq {
		t.Errorf("commitSeq %d (was %d, journal at %d): advanced on frames nobody acknowledged", st.CommitSeq, before, st.JournalSeq)
	}
	if got := replMetric(w, domain, 0, "bb_repl_acks_total"); got == acks {
		t.Error("no heartbeat was acknowledged during the wait: the majority rule was not exercised")
	}
	if got := replMetric(w, domain, 0, "bb_repl_inflight_frames"); got < 2 {
		t.Errorf("bb_repl_inflight_frames = %v with unanswered frames on two streams", got)
	}
}

// TestStreamLeaderKilledWithFramesInFlight is the failover property
// under concurrent load: the leader dies while several reserves, and so
// several stream frames, are in flight. Every grant a caller was given
// must survive on the promoted follower with its handle; nothing is
// admitted twice; the survivors converge.
func TestStreamLeaderKilledWithFramesInFlight(t *testing.T) {
	script := func(string, bool, *signalling.Message) transport.FaultAction { return transport.FaultPass }
	w, _, _ := streamWorld(t, 2, 3, 2*time.Second, script)
	src := w.SourceDomain()

	loaded := make(chan []streamGrant, 1)
	go func() { loaded <- reserveLoad(t, w, 4, 1000, true) }()
	// Let the load get going, then kill the leader under it.
	eventually(t, "load under way", func() bool {
		return w.ReplicaBB(src, 0).ReplicationStatus().CommitSeq >= 20
	})
	killed, err := w.KillLeader(src)
	if err != nil {
		t.Fatal(err)
	}
	grants := <-loaded
	if len(grants) == 0 {
		t.Fatal("no reserve was granted before the kill")
	}
	if _, err := w.PromoteAny(src); err != nil {
		t.Fatal(err)
	}
	for _, g := range grants {
		g.user.Close() // pooled connections died with the leader
	}
	for i, g := range grants {
		res, err := g.user.ReserveE2E(g.spec)
		if err != nil || !res.Granted {
			t.Fatalf("grant %d of %d lost in the failover: res=%+v err=%v", i, len(grants), res, err)
		}
		if res.Handle != g.handle {
			t.Errorf("grant %d: handle %q after failover, want the original %q", i, res.Handle, g.handle)
		}
	}
	// The first pass may have completed what the dead leader left half
	// done; a second must find everything settled and admit nothing.
	granted := grantedIn(w, src)
	for _, g := range grants {
		if res, err := g.user.ReserveE2E(g.spec); err != nil || !res.Granted {
			t.Fatalf("second retransmission: res=%+v err=%v", res, err)
		}
	}
	if got := grantedIn(w, src); got != granted {
		t.Errorf("retransmissions admitted again: %d granted, was %d", got, granted)
	}
	var live []int
	for i := 0; i < 3; i++ {
		if i != killed {
			live = append(live, i)
		}
	}
	waitReplicated(t, w, src, live)
	requireDigestsEqual(t, w, src, live)
}

// TestStreamDeposedLeaderFenced: a leader that missed its own
// deposition (the vote never reached it) keeps streaming at the old
// term. The followers refuse those messages by term, apply nothing from
// them, and their refusal is what demotes it — a fencing answer is not a
// stream failure and restarts nothing.
func TestStreamDeposedLeaderFenced(t *testing.T) {
	const domain = "Domain0"
	script := func(addr string, send bool, m *signalling.Message) transport.FaultAction {
		if send && addr == replicaAddr(domain, 0) && m.Type == signalling.MsgJournalStream && m.JournalStream.Kind == signalling.StreamVote {
			return transport.FaultDrop
		}
		return transport.FaultPass
	}
	w, stateDir, arm := streamWorld(t, 1, 3, 200*time.Millisecond, script)
	reserveLoad(t, w, 1, 3, false)
	waitReplicated(t, w, domain, []int{0, 1, 2})
	arm.Store(true)

	frame := lastOutcomeFrame(t, stateDir, domain, 0) // before a snapshot install rotates that journal
	old, next := w.ReplicaBB(domain, 0), w.ReplicaBB(domain, 1)
	if err := next.Promote(); err != nil {
		t.Fatal(err)
	}
	// The old leader still believes it leads until a follower tells it.
	eventually(t, "deposed leader steps down", func() bool {
		st := old.ReplicationStatus()
		return !st.Leader && st.Term == 2
	})
	if got := replMetric(w, domain, 0, "bb_repl_stream_resyncs_total"); got != 0 {
		t.Errorf("deposed leader restarted %v streams over a term refusal", got)
	}
	// A sound frame at the deposed term, handed straight to a follower:
	// refused with the term that fences it, nothing applied or journaled,
	// and the follower keeps following the leader it has.
	follower := w.ReplicaBB(domain, 2)
	eventually(t, "follower caught up with the new leader", func() bool {
		return follower.ReplicationStatus().LeaderID == 1 &&
			bytes.Equal(replicaDigest(t, w, domain, 2), replicaDigest(t, w, domain, 1))
	})
	before := follower.ReplicationStatus()
	resp := follower.Handle(signalling.Peer{DN: follower.DN()}, &signalling.Message{
		Type: signalling.MsgJournalStream,
		JournalStream: &signalling.JournalStreamPayload{
			Domain: domain, Term: 1, LeaderID: 0, FromSeq: before.AppliedSeq,
			Records: [][]byte{frame},
		},
	})
	if resp.Result == nil || resp.Result.Granted || resp.Result.Term != 2 {
		t.Fatalf("stale-term frame answered %+v, want a refusal carrying term 2", resp.Result)
	}
	if after := follower.ReplicationStatus(); after.AppliedSeq != before.AppliedSeq || after.JournalSeq != before.JournalSeq || after.LeaderID != 1 {
		t.Errorf("stale-term frame changed the follower: %+v -> %+v", before, after)
	}
}

// TestStreamFollowerChecks hands stream messages straight to an idle
// follower and pins each check on the apply path where it stands:
// replica-DN and domain authorisation, the splice test, one validation
// of every frame before apply and before the WAL, apply before append,
// the applied sequence advancing once per message by exactly what was
// applied and journaled, and the acknowledgement covering only that.
func TestStreamFollowerChecks(t *testing.T) {
	const domain = "Domain0"
	script := func(string, bool, *signalling.Message) transport.FaultAction { return transport.FaultPass }
	w, stateDir, _ := streamWorld(t, 1, 3, 2*time.Second, script)
	reserveLoad(t, w, 1, 3, false)
	waitReplicated(t, w, domain, []int{0, 1, 2})
	if _, err := w.KillLeader(domain); err != nil { // followers go idle, still at term 1
		t.Fatal(err)
	}
	good := lastOutcomeFrame(t, stateDir, domain, 0)
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff
	trailing := append(append([]byte(nil), good...), 0)
	unappliable, err := journal.AppendRecord(nil, "bb.rar", journal.RawBinary{0xff, 0xff, 0xff, 0xff})
	if err != nil {
		t.Fatal(err)
	}
	// A record of the retired single-op vocabulary, as a leader one
	// release back would stream it.
	retired, err := journal.AppendRecord(nil, "bb.tunnel_alloc", journal.RawBinary{0x0a, 0x01, 'R'})
	if err != nil {
		t.Fatal(err)
	}

	f := w.ReplicaBB(domain, 1)
	digest := replicaDigest(t, w, domain, 1)
	send := func(peer signalling.Peer, p *signalling.JournalStreamPayload) *signalling.ResultPayload {
		t.Helper()
		resp := f.Handle(peer, &signalling.Message{Type: signalling.MsgJournalStream, JournalStream: p})
		if resp == nil || resp.Result == nil {
			t.Fatalf("no result for %+v", p)
		}
		return resp.Result
	}
	self := signalling.Peer{DN: f.DN()}
	frames := func(from int64, recs ...[]byte) *signalling.JournalStreamPayload {
		return &signalling.JournalStreamPayload{Domain: domain, Term: 1, LeaderID: 0, FromSeq: from, Records: recs}
	}
	// expect checks one message's effect: how many records it applied and
	// journaled, whether it was acknowledged, and that the state a digest
	// covers did not move.
	expect := func(what string, res *signalling.ResultPayload, before followerSeqs, applied int64, granted bool) {
		t.Helper()
		after := statusOf(f)
		if res.Granted != granted {
			t.Errorf("%s: granted=%t (%s), want %t", what, res.Granted, res.Reason, granted)
		}
		if after.applied != before.applied+applied || after.journal != before.journal+applied {
			t.Errorf("%s: applied %d -> %d, journal %d -> %d, want both to advance by %d",
				what, before.applied, after.applied, before.journal, after.journal, applied)
		}
		if res.AckSeq != after.applied {
			t.Errorf("%s: acknowledged %d, applied and journaled %d", what, res.AckSeq, after.applied)
		}
		if got := replicaDigest(t, w, domain, 1); !bytes.Equal(got, digest) {
			t.Errorf("%s: follower state changed", what)
		}
	}

	st := statusOf(f)
	res := send(signalling.Peer{DN: "/O=Grid/OU=Elsewhere/CN=bb"}, frames(st.applied, good))
	if res.Granted || !strings.Contains(res.Reason, "not a replica") || statusOf(f) != st {
		t.Errorf("frame from a foreign DN: %+v, follower %+v -> %+v", res, st, statusOf(f))
	}
	foreign := frames(st.applied, good)
	foreign.Domain = "Elsewhere"
	res = send(self, foreign)
	if res.Granted || !strings.Contains(res.Reason, "foreign domain") || statusOf(f) != st {
		t.Errorf("frame for a foreign domain: %+v, follower %+v -> %+v", res, st, statusOf(f))
	}

	expect("frame past a gap", send(self, frames(st.applied+3, good)), st, 0, false)
	expect("frame already applied", send(self, frames(st.applied-1, good)), st, 0, false)
	expect("frame with a bad checksum", send(self, frames(st.applied, corrupt)), st, 0, false)
	expect("frame with a trailing byte", send(self, frames(st.applied, trailing)), st, 0, false)
	expect("valid frame that does not apply", send(self, frames(st.applied, unappliable)), st, 0, false)
	expect("frame of an op this build does not know", send(self, frames(st.applied, retired)), st, 0, false)
	expect("good frame then a bad one", send(self, frames(st.applied, good, corrupt)), st, 1, false)
	st = statusOf(f)
	expect("two good frames", send(self, frames(st.applied, good, good)), st, 2, true)
	st = statusOf(f)
	expect("heartbeat", send(self, frames(st.applied)), st, 0, true)

	// What the follower journaled is exactly what it acknowledged: the
	// three good frames, byte for byte, and none of the refused ones.
	wal, err := journal.Recover(filepath.Join(stateDir, domain, "r1"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(wal.Records); n < 3 {
		t.Fatalf("follower journal holds %d records", n)
	}
	for _, r := range wal.Records[len(wal.Records)-3:] {
		if again, _ := journal.AppendRecord(nil, r.Op, journal.RawBinary(r.Data)); !bytes.Equal(again, good) {
			t.Errorf("follower journal tail holds %s, not the streamed frame", r.Op)
		}
	}
}

// followerSeqs is how far a follower has applied and journaled.
type followerSeqs struct{ applied, journal int64 }

func statusOf(b *bb.BB) followerSeqs {
	st := b.ReplicationStatus()
	return followerSeqs{st.AppliedSeq, st.JournalSeq}
}

// TestReplicaTailsDrainOnAcknowledgement: a journal frame stays in the
// leader's stream tail until every follower has acknowledged it, and a
// follower keeps no tail at all. After a run of reserve/cancel cycles
// the tail gauge drains to 0 on every replica. With one follower's
// acknowledgements lost, the leader keeps what that follower has not
// acknowledged, within the cap. Once they flow again, the follower
// catches up by snapshot, the tail drains, and all three replicas hold
// the same state.
func TestReplicaTailsDrainOnAcknowledgement(t *testing.T) {
	const domain = "Domain0"
	const callTimeout = 3 * time.Second
	var deaf atomic.Bool
	script := func(addr string, send bool, m *signalling.Message) transport.FaultAction {
		if deaf.Load() && !send && addr == replicaAddr(domain, 2) && m.Type == signalling.MsgResult {
			return transport.FaultDrop
		}
		return transport.FaultPass
	}
	w, _, arm := streamWorld(t, 1, 3, callTimeout, script)
	arm.Store(true)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	cycles := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
			if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
				t.Fatalf("reserve %d: res=%+v err=%v", i, res, err)
			}
			if err := u.Cancel(w.SourceDomain(), spec.RARID); err != nil {
				t.Fatalf("cancel %d: %v", i, err)
			}
		}
	}
	tail := func(i int) float64 {
		t.Helper()
		v, ok := w.ReplicaBB(domain, i).MetricsRegistry().Snapshot()["bb_repl_tail_bytes"]
		if !ok {
			t.Fatalf("replica %d exports no bb_repl_tail_bytes", i)
		}
		return v
	}
	drained := func(what string) {
		t.Helper()
		eventually(t, what, func() bool { return tail(0) == 0 && tail(1) == 0 && tail(2) == 0 })
	}

	cycles(200)
	drained("every replica's tail drains once the followers acknowledged")

	snaps := replMetric(w, domain, 0, "bb_repl_snapshots_sent_total")
	deaf.Store(true)
	cycles(200)
	if got := tail(0); got <= 0 || got > bb.ReplTailBytes {
		t.Errorf("leader tail holds %v bytes with a follower not acknowledging, want above 0 and at most %d", got, bb.ReplTailBytes)
	}
	if a, b := tail(1), tail(2); a != 0 || b != 0 {
		t.Errorf("follower tails hold %v and %v bytes, want none", a, b)
	}
	if got := replMetric(w, domain, 0, "bb_repl_snapshots_sent_total"); got != snaps {
		t.Fatalf("%v snapshots sent while the follower was deaf: the cycles outlasted the ack timeout", got-snaps)
	}
	deaf.Store(false)
	// The connection whose answers were lost is given up on at the ack
	// timeout; the next one starts from a snapshot.
	for deadline := time.Now().Add(callTimeout + 5*time.Second); replMetric(w, domain, 0, "bb_repl_snapshots_sent_total") == snaps; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the healed follower was never sent a snapshot")
		}
	}
	drained("the leader's tail drains once the healed follower caught up")
	waitReplicated(t, w, domain, []int{0, 1, 2})
	requireDigestsEqual(t, w, domain, []int{0, 1, 2})
	if got := replMetric(w, domain, 0, "bb_repl_snapshots_sent_total"); got != snaps+1 {
		t.Errorf("the healed follower took %v snapshots, want 1", got-snaps)
	}
}

// BenchmarkReplCommitGate carries journal appends to a majority commit
// on a three-replica group over the in-memory transport: the settling
// goroutine writes the frames to both followers, each applies and
// journals them on its reader, and the first acknowledgement folded in
// on the leader's demux releases the wait. Journals write through
// without fsync, so the figure is the gate's own. rar_cancel commits
// one record that changes nothing (the cancel of a RAR nobody
// registered); reserve commits what a granted reserve journals at its
// source: the table's resv.admit and a bb.rar whose outcome carries
// three approvals (plus, every 128th, the sweep's resv.compact).
func BenchmarkReplCommitGate(b *testing.B) {
	b.Run("rar_cancel", func(b *testing.B) {
		benchCommitGate(b, func(leader *bb.BB) error {
			leader.CommitGate()
			return nil
		})
	})
	b.Run("reserve", func(b *testing.B) {
		outcome := &signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{Granted: true, Handle: "Domain0-1"}}
		for i, d := range []string{"Domain2", "Domain1", "Domain0"} {
			outcome.Result.Approvals = append(outcome.Result.Approvals, signalling.DomainApproval{
				Domain: d, BBDN: identity.DN("/O=Grid/OU=" + d + "/CN=bb"), RARID: "RAR-bench", Handle: d + "-1",
				Granted: true, Signature: bytes.Repeat([]byte{byte(i + 1)}, 64),
			})
		}
		// Ended long enough ago that every admission sweep removes it.
		now := time.Now()
		window := units.Window{Start: now.Add(-3 * time.Hour), End: now.Add(-2 * time.Hour)}
		benchCommitGate(b, func(leader *bb.BB) error { return leader.CommitGateReserve(window, outcome) })
	})
}

func benchCommitGate(b *testing.B, gate func(leader *bb.BB) error) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 1, Replicas: 3, StateDir: b.TempDir(), FsyncPolicy: "never", CallTimeout: 2 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	leader := w.ReplicaBB("Domain0", 0)
	for i := 0; i < 200; i++ {
		if err := gate(leader); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gate(leader); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := leader.ReplicationStatus(); st.CommitSeq != st.JournalSeq {
		b.Fatalf("commitSeq %d behind the journal at %d: the gate timed out", st.CommitSeq, st.JournalSeq)
	}
}

// TestPromotedSourceMintsAboveItsLeader: a source batch's Seq is its
// endpoint's generation after the local halves, so a follower promoted
// after the leader died must hold the record that carries it, or it
// mints the same Seq again and the destination answers the new batch
// with the dead leader's outcome. The leader's frames to its followers
// run late here; the batch must not leave before a majority holds its
// record.
func TestPromotedSourceMintsAboveItsLeader(t *testing.T) {
	const src = "Domain0"
	var arm atomic.Bool
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 2, Replicas: 3, Capacity: 1000 * units.Mbps, StateDir: t.TempDir(), FsyncPolicy: "never",
		CallTimeout: 2 * time.Second, EnableObs: true,
		WrapDialer: func(_ string, d transport.Dialer) transport.Dialer {
			return transport.NewFaultyDialer(d, func(addr string, send bool, raw []byte) transport.FaultAction {
				if !arm.Load() || !send || !strings.HasPrefix(addr, "bb."+src+".r") {
					return transport.FaultPass
				}
				if m, err := signalling.DecodeMessage(raw); err == nil && m.JournalStream != nil && len(m.JournalStream.Records) > 0 {
					time.Sleep(300 * time.Millisecond)
				}
				return transport.FaultPass
			})
		},
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
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 100 * units.Mbps, Tunnel: true})
	if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("tunnel establishment: res=%+v err=%v", res, err)
	}
	waitReplicated(t, w, src, []int{0, 1, 2})

	arm.Store(true)
	if err := w.BBs[src].AllocateTunnelFlow(spec.RARID, "f1", units.Mbps, u.DN()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.KillLeader(src); err != nil {
		t.Fatal(err)
	}
	arm.Store(false)
	if _, err := w.PromoteAny(src); err != nil {
		t.Fatal(err)
	}
	if err := w.BBs[src].AllocateTunnelFlow(spec.RARID, "f2", units.Mbps, u.DN()); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{src, w.DestDomain()} {
		ep, _ := w.BBs[d].Tunnel(spec.RARID)
		if got := fmt.Sprint(ep.SubFlows()); got != "[f1 f2]" {
			t.Errorf("%s holds %s after the promoted source's batch, want [f1 f2]", d, got)
		}
	}
}

// TestCommitWaitersShareOneTimer: the replicator bounds every commit
// wait with one timer, armed at the earliest waiting deadline. Settles
// that wait at the same time, from many goroutines, all commit while the
// followers answer; once nobody answers, each of four staggered waiters
// gives up at its own one-second bound — not at an earlier waiter's, and
// not later — and each is counted and timed once.
func TestCommitWaitersShareOneTimer(t *testing.T) {
	const domain = "Domain0"
	var deaf atomic.Bool
	script := func(addr string, send bool, m *signalling.Message) transport.FaultAction {
		if send && deaf.Load() && strings.HasPrefix(addr, "bb."+domain+".r") &&
			m.Type == signalling.MsgJournalStream && len(m.JournalStream.Records) > 0 {
			return transport.FaultDrop
		}
		return transport.FaultPass
	}
	w, _, arm := streamWorld(t, 1, 3, 10*time.Second, script)
	arm.Store(true)
	leader := w.ReplicaBB(domain, 0)
	metric := func(name string) float64 { return replMetric(w, domain, 0, name) }

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				leader.CommitGate()
			}
		}()
	}
	wg.Wait()
	if st := leader.ReplicationStatus(); st.CommitSeq != st.JournalSeq {
		t.Fatalf("commitSeq %d behind the journal at %d after every settle returned", st.CommitSeq, st.JournalSeq)
	}
	if got := metric("bb_repl_commit_timeouts_total"); got != 0 {
		t.Fatalf("bb_repl_commit_timeouts_total = %v with both followers answering", got)
	}

	deaf.Store(true)
	waited := metric("bb_repl_commit_wait_seconds_count")
	const waiters, stagger = 4, 150 * time.Millisecond
	took := make([]time.Duration, waiters)
	for k := 0; k < waiters; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(k) * stagger)
			t0 := time.Now()
			leader.CommitGate()
			took[k] = time.Since(t0)
		}()
	}
	wg.Wait()
	for k, d := range took {
		if d < time.Second || d > 2*time.Second {
			t.Errorf("waiter %d gave up after %v, want its own one-second bound", k, d)
		}
	}
	if got := metric("bb_repl_commit_timeouts_total"); got != waiters {
		t.Errorf("bb_repl_commit_timeouts_total = %v, want one per waiter (%d)", got, waiters)
	}
	if got := metric("bb_repl_commit_wait_seconds_count") - waited; got != waiters {
		t.Errorf("bb_repl_commit_wait_seconds observed %v waits, want %d", got, waiters)
	}
}

// TestFollowerStreamApplyAllocationBound gates what a follower
// allocates to apply one stream message (DESIGN.md §6.8, "What a
// follower keeps"): the records are decoded in place, and only what the
// follower keeps is copied — once per record. The frames are a source
// broker's own, read from its WAL: a granted reserve's (resv.admit,
// then bb.rar with a three-approval outcome) and a cancel's
// (bb.rar_cancel, resv.cancel), one message each, applied by an idle
// follower whose leader is dead, so nothing else runs while the gate
// counts. The follower answers into a reply slot, as it does when a
// server hands it one (signalling.Peer.Reply).
func TestFollowerStreamApplyAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	const (
		runs         = 40
		reserveBound = 8 // DESIGN.md §6.8
	)
	srcDir := t.TempDir()
	src, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 3, Capacity: 10_000 * units.Mbps, CallTimeout: 2 * time.Second, StateDir: srcDir, FsyncPolicy: "never",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(src.Close)
	u, err := src.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	for i := 0; i <= runs; i++ {
		spec := u.NewSpec(experiment.SpecOptions{DestDomain: src.DestDomain(), Bandwidth: units.Mbps})
		res, err := u.ReserveE2E(spec)
		if err != nil || !res.Granted || len(res.Approvals) != 3 {
			t.Fatalf("reserve %d: res=%+v err=%v", i, res, err)
		}
		if err := u.Cancel(src.SourceDomain(), spec.RARID); err != nil {
			t.Fatalf("cancel %d: %v", i, err)
		}
	}
	rec, err := journal.Recover(filepath.Join(srcDir, src.SourceDomain()))
	if err != nil {
		t.Fatal(err)
	}
	// The source journals each cycle as resv.admit, bb.rar, bb.rar_cancel,
	// resv.cancel.
	var reserves, cancels [][][]byte
	for i := 0; i+3 < len(rec.Records); i += 4 {
		var frames [][]byte
		for _, r := range rec.Records[i : i+4] {
			f, err := journal.AppendRecord(nil, r.Op, journal.RawBinary(r.Data))
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
		if ops := [4]string{rec.Records[i].Op, rec.Records[i+1].Op, rec.Records[i+2].Op, rec.Records[i+3].Op}; ops != [4]string{"resv.admit", "bb.rar", "bb.rar_cancel", "resv.cancel"} {
			t.Fatalf("cycle at record %d journaled %v", i, ops)
		}
		reserves = append(reserves, frames[:2])
		cancels = append(cancels, frames[2:])
	}
	if len(reserves) != runs+1 {
		t.Fatalf("%d cycles in the source's journal, want %d", len(reserves), runs+1)
	}

	const domain = "Domain0"
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 1, Replicas: 3, Capacity: 10_000 * units.Mbps, CallTimeout: 2 * time.Second, StateDir: t.TempDir(), FsyncPolicy: "never",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	eventually(t, "replica 1 joins the stream", func() bool { return w.ReplicaBB(domain, 1).ReplicationStatus().LeaderID == 0 })
	waitReplicated(t, w, domain, []int{0, 1, 2})
	if _, err := w.KillLeader(domain); err != nil { // nothing streams while the gate counts
		t.Fatal(err)
	}
	f := w.ReplicaBB(domain, 1)
	self := signalling.Peer{DN: f.DN(), Slot: new(signalling.ReplySlot)}
	apply := func(what string, messages [][][]byte) float64 {
		t.Helper()
		msgs := make([]signalling.Message, len(messages))
		for i, frames := range messages {
			msgs[i] = signalling.Message{Type: signalling.MsgJournalStream, JournalStream: &signalling.JournalStreamPayload{
				Domain: domain, Term: 1, Records: frames,
			}}
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			m := &msgs[next]
			next++
			m.JournalStream.FromSeq = f.ReplicationStatus().AppliedSeq
			if resp := f.Handle(self, m); resp.Result == nil || !resp.Result.Granted {
				t.Fatalf("%s %d refused: %+v", what, next, resp.Result)
			}
		})
		if next != len(msgs) {
			t.Fatalf("%s: %d of %d messages applied", what, next, len(msgs))
		}
		return got
	}
	if got := apply("reserve", reserves); got > reserveBound {
		t.Errorf("a granted reserve's stream message allocates %.1f on the follower, want at most %d", got, reserveBound)
	} else {
		t.Logf("a granted reserve's stream message allocates %.1f", got)
	}
	if got := apply("cancel", cancels); got > 0 {
		t.Errorf("a cancel's stream message allocates %.1f on the follower, want 0", got)
	}
	if n := grantedIn(w, domain); n != 0 {
		t.Errorf("%d reservations granted on the follower after every cancel, want 0", n)
	}
}
