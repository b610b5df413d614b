package bb

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"e2eqos/internal/journal"
	"e2eqos/internal/obs"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
)

// Replication (DESIGN.md §6.8): a replicated broker group elects one
// leader per term; the leader serves all mutating signalling and
// streams its journal — the same CRC-framed records the WAL holds — to
// every follower. Followers apply each record live (reservation table,
// RAR replay cache, tunnel state) and re-journal the frame verbatim,
// so a promoted follower's WAL is byte-compatible with the dead
// leader's. A follower that lags past the leader's in-memory tail
// catches up from a full state snapshot, cut at an exact journal
// sequence.
//
// Commit = majority acknowledgement. The leader withholds a settlement
// (closing a reserve's done channel, answering a tunnel batch) until
// the journal sequence covering it is acked by a majority, so any
// outcome a caller ever saw survives the leader's death on at least
// one electable replica. Elections enforce that: a voter refuses any
// candidate whose applied sequence trails its own, so the winner holds
// every committed record.
const (
	// replTailBytes budgets the in-memory journal tail kept for
	// incremental streaming; followers further behind than this resync
	// from a snapshot.
	replTailBytes = 1 << 20
	// replBatchRecords caps the records per stream message.
	replBatchRecords = 256
	// replHeartbeat paces empty stream messages on an idle group: they
	// assert the leader's term and share the commit sequence.
	replHeartbeat = 100 * time.Millisecond
	// replRedialBackoff is the pause before a pump redials a follower
	// it could not reach.
	replRedialBackoff = 20 * time.Millisecond
	// replCommitTimeout bounds the leader's wait for majority
	// acknowledgement before settling anyway (counted — a degraded
	// group keeps serving rather than blocking every caller forever).
	replCommitTimeout = time.Second
	// epochFenceStride is added to the RAR epoch counter on every
	// election win. Strictly larger than any count of records a leader
	// could journal in one term, it guarantees a new leader never mints
	// an epoch the dead leader journaled but failed to replicate.
	epochFenceStride = int64(1) << 32
)

type replRole int

const (
	replFollower replRole = iota
	replLeader
)

// replicator is one broker's replication engine.
type replicator struct {
	b     *BB
	id    int
	addrs map[int]string

	mu         sync.Mutex
	commitCond *sync.Cond // broadcast on commit advance, role change, close
	role       replRole
	term       int64
	leaderID   int // -1 while unknown
	appliedSeq int64
	commitSeq  int64
	acks       map[int]int64 // leader: highest seq acked per follower
	pumpStop   chan struct{} // non-nil while leading
	closed     bool
	lastHeard  time.Time // follower: last leader contact, for auto-election

	pumpWG sync.WaitGroup

	// applyMu serializes stream application on a follower (the leader
	// retries on a lost ack, so two copies of a message may race).
	applyMu sync.Mutex
	// resvApply replays reservation-table records in stream order,
	// tolerating the emission inversions batch recovery tolerates.
	resvApply *resv.StreamReplayer
	// pendingOps buffers tunnel sub-flow ops per RAR until they can be
	// applied dense-in-generation (stream order can invert emission
	// order under concurrency, but generations are dense per endpoint).
	pendingOps map[string][]tunnelOpRecord

	electStop chan struct{}
}

// newReplicator wires the engine into a freshly built broker. Called
// from New after journal recovery; the broker is not yet shared, so
// field setup needs no locking, but pumps started here already run.
func newReplicator(b *BB) *replicator {
	r := &replicator{
		b:          b,
		id:         b.cfg.ReplicaID,
		addrs:      b.cfg.ReplicaAddrs,
		leaderID:   -1,
		acks:       make(map[int]int64),
		resvApply:  resv.NewStreamReplayer(b.table),
		pendingOps: make(map[string][]tunnelOpRecord),
		appliedSeq: b.journal.Seq(),
	}
	r.commitCond = sync.NewCond(&r.mu)
	if !b.cfg.StartAsFollower {
		r.role = replLeader
		r.leaderID = r.id
		r.term = 1
		r.startPumpsLocked()
	}
	if b.cfg.ElectionTimeout > 0 {
		r.electStop = make(chan struct{})
		go r.electionLoop(r.electStop)
	}
	return r
}

// close stops pumps and the election timer and releases commit
// waiters. Safe on a nil receiver (unreplicated broker) and idempotent.
func (r *replicator) close() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.closed = true
	if r.pumpStop != nil {
		close(r.pumpStop)
		r.pumpStop = nil
	}
	if r.electStop != nil {
		close(r.electStop)
		r.electStop = nil
	}
	r.commitCond.Broadcast()
	r.mu.Unlock()
	r.pumpWG.Wait()
}

// startPumpsLocked launches one streaming pump per follower. Caller
// holds r.mu (or owns r exclusively, during construction).
func (r *replicator) startPumpsLocked() {
	stop := make(chan struct{})
	r.pumpStop = stop
	for id := range r.addrs {
		if id == r.id {
			continue
		}
		r.pumpWG.Add(1)
		go r.pump(id, stop)
	}
}

// stepDownLocked demotes a leader (or standing candidate) to follower
// under a superseding term. Caller holds r.mu.
func (r *replicator) stepDownLocked(term int64, leaderID int) {
	if term > r.term {
		r.term = term
	}
	if r.role == replLeader {
		r.b.log.Info("replication: stepping down", "term", term, "new_leader", leaderID)
	}
	r.role = replFollower
	r.leaderID = leaderID
	if r.pumpStop != nil {
		close(r.pumpStop)
		r.pumpStop = nil
	}
	// Release settle paths blocked on commit: they re-check the role.
	r.commitCond.Broadcast()
}

// observeTerm handles a higher term learned from a stream reply or
// vote exchange: adopt it and step down.
func (r *replicator) observeTerm(term int64, leaderID int) {
	r.mu.Lock()
	if term > r.term {
		r.stepDownLocked(term, leaderID)
	}
	r.mu.Unlock()
}

// isFollower reports whether mutating signalling must be redirected.
func (r *replicator) isFollower() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role != replLeader
}

// leader reports the current leader's id and address ("" while
// unknown — a fresh follower that has heard from nobody).
func (r *replicator) leader() (int, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderID, r.addrs[r.leaderID]
}

// callTimeout bounds each replication RPC. CallTimeout zero means
// "wait forever" elsewhere in the broker, but a pump must never hang
// past close, so replication substitutes a real bound.
func (r *replicator) callTimeout() time.Duration {
	if t := r.b.cfg.CallTimeout; t > 0 {
		return t
	}
	return time.Second
}

// dialReplica opens an authenticated stream client to a peer replica.
// Replicas share the domain's identity, so the authorization check is
// DN equality with our own.
func (r *replicator) dialReplica(id int) (*signalling.Client, error) {
	b := r.b
	addr, ok := r.addrs[id]
	if !ok {
		return nil, fmt.Errorf("bb %s: no address for replica %d", b.cfg.Domain, id)
	}
	if b.cfg.Dialer == nil {
		return nil, fmt.Errorf("bb %s: no dialer configured", b.cfg.Domain)
	}
	c, err := signalling.Dial(b.cfg.Dialer, addr)
	if err != nil {
		return nil, err
	}
	c.Timeout = r.callTimeout()
	if c.PeerDN() != b.DN() {
		c.Close()
		return nil, fmt.Errorf("bb %s: replica %d at %s authenticated as %s, not this domain's broker",
			b.cfg.Domain, id, addr, c.PeerDN())
	}
	return c, nil
}

// sleepOrStop pauses, returning false if stop closed first.
func sleepOrStop(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}

// streamReply builds a follower's answer to a stream or vote message.
func streamReply(granted bool, ack, term int64) *signalling.Message {
	return &signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{
		Granted: granted, AckSeq: ack, Term: term,
	}}
}

// ---------------------------------------------------------------------
// Leader side: pumps, acknowledgements, group commit.

// pump is the leader's streaming loop toward one follower. It owns a
// dedicated client (never the DN-keyed pool — every replica shares the
// domain DN) and tracks the follower's acknowledged sequence. An
// unknown or lost position resyncs with a snapshot; everything after
// streams incrementally off the journal's in-memory tail.
func (r *replicator) pump(id int, stop chan struct{}) {
	defer r.pumpWG.Done()
	b := r.b
	var client *signalling.Client
	defer func() {
		if client != nil {
			client.Close()
		}
	}()
	acked := int64(-1) // unknown follower position: snapshot first
	for {
		select {
		case <-stop:
			return
		default:
		}
		r.mu.Lock()
		leading := r.role == replLeader && !r.closed
		term := r.term
		commit := r.commitSeq
		r.mu.Unlock()
		if !leading {
			return
		}

		if client == nil {
			c, err := r.dialReplica(id)
			if err != nil {
				if !sleepOrStop(stop, replRedialBackoff) {
					return
				}
				continue
			}
			client = c
			acked = -1 // a reconnected follower may have restarted
		}

		// Arm the change notification before reading the tail, so an
		// append racing the read wakes the idle wait below.
		changed := b.journal.Changes()
		var msg *signalling.Message
		if acked < 0 {
			data, seq, err := b.journal.SnapshotWith(b.snapshotState)
			if err != nil {
				b.log.Error("replication: snapshot for follower failed", "replica", id, "err", err)
				if !sleepOrStop(stop, replRedialBackoff) {
					return
				}
				continue
			}
			msg = &signalling.Message{Type: signalling.MsgJournalStream, JournalStream: &signalling.JournalStreamPayload{
				Domain: b.cfg.Domain, Term: term, LeaderID: r.id,
				Snapshot: data, SnapSeq: seq, CommitSeq: commit,
			}}
			b.m.replSnapshotsSent.Inc()
		} else {
			recs, ok := b.journal.TailSince(acked)
			if !ok {
				acked = -1 // fell off the tail: resync
				continue
			}
			if len(recs) == 0 {
				// Caught up: wait for an append, a heartbeat tick, or
				// shutdown. The heartbeat doubles as the term assert and
				// commit-sequence share on an idle group.
				hb := time.NewTimer(replHeartbeat)
				select {
				case <-stop:
					hb.Stop()
					return
				case <-changed:
					hb.Stop()
					continue
				case <-hb.C:
				}
			}
			if len(recs) > replBatchRecords {
				recs = recs[:replBatchRecords]
			}
			frames := make([][]byte, len(recs))
			for i, sr := range recs {
				frames[i] = sr.Frame
			}
			msg = &signalling.Message{Type: signalling.MsgJournalStream, JournalStream: &signalling.JournalStreamPayload{
				Domain: b.cfg.Domain, Term: term, LeaderID: r.id,
				FromSeq: acked, Records: frames, CommitSeq: commit,
			}}
			if n := len(frames); n > 0 {
				b.m.replRecordsStreamed.Add(int64(n))
			}
		}

		resp, err := client.CallTimeout(msg, r.callTimeout())
		if err != nil {
			b.m.replStreamErrors.Inc()
			client.Close()
			client = nil
			if !sleepOrStop(stop, replRedialBackoff) {
				return
			}
			continue
		}
		res := resp.Result
		if res == nil {
			b.m.replStreamErrors.Inc()
			continue
		}
		if !res.Granted {
			if res.Term > term {
				// A higher term exists: this leadership is over.
				r.observeTerm(res.Term, -1)
				return
			}
			// The follower refused the batch (gap, apply failure):
			// resync from a snapshot.
			acked = -1
			continue
		}
		acked = res.AckSeq
		r.noteAck(id, acked)
	}
}

// noteAck records a follower acknowledgement and recomputes the group
// commit sequence: the median of {leader's own sequence} ∪ follower
// acks — the highest sequence held by a majority.
func (r *replicator) noteAck(id int, seq int64) {
	b := r.b
	own := b.journal.Seq()
	r.mu.Lock()
	if seq > r.acks[id] {
		r.acks[id] = seq
	}
	seqs := make([]int64, 0, len(r.addrs))
	seqs = append(seqs, own)
	for rid := range r.addrs {
		if rid != r.id {
			seqs = append(seqs, r.acks[rid])
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	if commit := seqs[len(seqs)/2]; commit > r.commitSeq {
		r.commitSeq = commit
		r.commitCond.Broadcast()
	}
	r.mu.Unlock()
	b.m.replAcks.Inc()
}

// replWaitCommit blocks a leader's settle path until the broker's own
// journal sequence — covering every record the settlement depends on —
// is majority-acknowledged, bounded by replCommitTimeout. On an
// unreplicated broker, a follower (the settle raced a step-down), or a
// timeout (counted: the group is degraded, keep serving) it returns
// immediately; the outcome the caller settles is then durable locally
// but not yet guaranteed replicated, exactly the pre-replication
// contract.
func (b *BB) replWaitCommit() {
	r := b.repl
	if r == nil {
		return
	}
	target := b.journal.Seq()
	timedOut := false
	timer := time.AfterFunc(replCommitTimeout, func() {
		r.mu.Lock()
		timedOut = true
		r.commitCond.Broadcast()
		r.mu.Unlock()
	})
	r.mu.Lock()
	for r.commitSeq < target && r.role == replLeader && !r.closed && !timedOut {
		r.commitCond.Wait()
	}
	ok := r.commitSeq >= target
	r.mu.Unlock()
	timer.Stop()
	if !ok && timedOut {
		b.m.replCommitTimeouts.Inc()
	}
}

// ---------------------------------------------------------------------
// Follower side: stream application, snapshot install, votes.

// handleJournalStream authorizes and dispatches replication traffic.
// Replicas share the domain's identity, so the only acceptable peer DN
// is our own.
func (b *BB) handleJournalStream(peer signalling.Peer, p *signalling.JournalStreamPayload) *signalling.Message {
	if b.repl == nil {
		return signalling.ErrorResult(fmt.Sprintf("%s: broker is not a replica group member", b.cfg.Domain))
	}
	if peer.DN != b.DN() {
		return signalling.ErrorResult(fmt.Sprintf("%s: %s is not a replica of this domain", b.cfg.Domain, peer.DN))
	}
	if p.Domain != b.cfg.Domain {
		return signalling.ErrorResult(fmt.Sprintf("%s: stream for foreign domain %q", b.cfg.Domain, p.Domain))
	}
	if p.Kind == signalling.StreamVote {
		return b.repl.handleVote(p)
	}
	return b.repl.handleStream(p)
}

// handleStream applies one leader message: optional snapshot install,
// then records in order, each re-journaled verbatim. The reply carries
// the follower's applied sequence as the acknowledgement.
func (r *replicator) handleStream(p *signalling.JournalStreamPayload) *signalling.Message {
	b := r.b
	r.mu.Lock()
	if p.Term < r.term {
		term := r.term
		r.mu.Unlock()
		return streamReply(false, 0, term) // stale leader: fence it
	}
	if p.Term > r.term || r.role == replLeader {
		// A newer term, or a competing leader at our own term after we
		// somehow kept leading — either way this broker follows now.
		r.stepDownLocked(p.Term, p.LeaderID)
	}
	r.leaderID = p.LeaderID
	r.lastHeard = time.Now()
	if p.CommitSeq > r.commitSeq {
		r.commitSeq = p.CommitSeq
	}
	term := r.term
	r.mu.Unlock()

	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	if len(p.Snapshot) > 0 {
		if err := r.installSnapshot(p.Snapshot, p.SnapSeq); err != nil {
			b.m.replStreamErrors.Inc()
			b.log.Error("replication: snapshot install failed", "err", err)
			return streamReply(false, r.applied(), term)
		}
	}
	if len(p.Records) > 0 {
		if p.FromSeq != r.applied() {
			// Gap or replayed batch we cannot splice: ask for resync.
			return streamReply(false, r.applied(), term)
		}
		for _, frame := range p.Records {
			if err := r.applyFrame(frame); err != nil {
				b.m.replStreamErrors.Inc()
				b.log.Error("replication: record apply failed", "seq", r.applied()+1, "err", err)
				return streamReply(false, r.applied(), term)
			}
			r.setApplied(r.applied() + 1)
			b.m.replRecordsApplied.Inc()
		}
	}
	b.maybeCheckpoint()
	return streamReply(true, r.applied(), term)
}

func (r *replicator) applied() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appliedSeq
}

func (r *replicator) setApplied(seq int64) {
	r.mu.Lock()
	r.appliedSeq = seq
	r.mu.Unlock()
}

// applyFrame applies one raw journal frame to the follower's live
// state, then re-journals it verbatim. Apply precedes append: a frame
// that fails to apply must not enter the WAL, and every applied frame
// is also journaled before it is acknowledged.
func (r *replicator) applyFrame(frame []byte) error {
	b := r.b
	rec, n, err := journal.DecodeRecord(frame)
	if err != nil {
		return err
	}
	if n != len(frame) {
		return fmt.Errorf("bb: replication: frame holds %d trailing bytes", len(frame)-n)
	}
	if err := r.resvApply.Apply(rec); err != nil {
		return err
	}
	ops, _, err := b.applyBBRecord(rec)
	if err != nil {
		return err
	}
	for _, op := range ops {
		r.pendingOps[op.RARID] = append(r.pendingOps[op.RARID], op)
	}
	switch {
	case len(ops) > 0:
		for _, op := range ops {
			if err := r.drainTunnelOps(op.RARID); err != nil {
				return err
			}
		}
	case rec.Op == opTunnel || rec.Op == opTunnelBatch:
		// An endpoint (re)appeared or a batch restored its replay
		// entry: ops parked while it was absent may now apply.
		for rarID := range r.pendingOps {
			if err := r.drainTunnelOps(rarID); err != nil {
				return err
			}
		}
	}
	return b.journal.AppendFrame(frame)
}

// drainTunnelOps applies parked sub-flow ops for one tunnel RAR in
// dense generation order. Generations are dense per endpoint (every
// successful allocate/release takes the next one), so the op extending
// Gen()+1 is always unambiguous; ops from dead epochs are dropped, ops
// from future epochs wait for their establishment record.
func (r *replicator) drainTunnelOps(rarID string) error {
	pend := r.pendingOps[rarID]
	if len(pend) == 0 {
		delete(r.pendingOps, rarID)
		return nil
	}
	ep, ok := r.b.tunnels.reg.Get(rarID)
	if !ok {
		return nil // establishment not streamed yet; keep parked
	}
	kept := pend[:0]
	for _, op := range pend {
		if op.Epoch >= ep.Epoch {
			kept = append(kept, op)
		}
	}
	for progress := true; progress; {
		progress = false
		next := ep.Gen() + 1
		for i, op := range kept {
			if op.Epoch != ep.Epoch || op.Gen != next {
				continue
			}
			switch op.Action {
			case "alloc":
				if err := ep.ReplayAlloc(op.SubFlowID, units.Bandwidth(op.Bandwidth), op.Gen); err != nil {
					return fmt.Errorf("bb: replication: replaying alloc %s/%s: %w", rarID, op.SubFlowID, err)
				}
			case "release":
				ep.ReplayRelease(op.SubFlowID, op.Gen)
			}
			kept = append(kept[:i], kept[i+1:]...)
			progress = true
			break
		}
	}
	if len(kept) == 0 {
		delete(r.pendingOps, rarID)
	} else {
		r.pendingOps[rarID] = kept
	}
	return nil
}

// installSnapshot replaces the follower's entire broker state with the
// leader's snapshot, in place (gauges and handlers keep their table and
// registry pointers), then rotates the follower's own journal onto the
// installed state so no stale pre-resync suffix survives a restart.
func (r *replicator) installSnapshot(data []byte, seq int64) error {
	b := r.b
	st, err := decodeBrokerState(data)
	if err != nil {
		return err
	}
	if err := b.table.ResetFrom(st.Table); err != nil {
		return err
	}
	b.mu.Lock()
	if st.Epoch > b.rarEpoch {
		b.rarEpoch = st.Epoch
	}
	b.routes = make(map[string]*rarState, len(st.RARs))
	for _, rr := range st.RARs {
		b.routes[rr.RARID] = recoveredRARState(rr)
	}
	b.mu.Unlock()
	eps := make([]*tunnel.Endpoint, 0, len(st.Tunnels))
	for _, ts := range st.Tunnels {
		ep, err := tunnel.Restore(ts)
		if err != nil {
			return fmt.Errorf("bb: replication: restoring tunnel %s: %w", ts.RARID, err)
		}
		eps = append(eps, ep)
	}
	b.tunnels.reg.ResetTo(eps)
	b.tunnels.resetBatches(st.TunnelBatches)
	// The leader's open rollback debt rides its snapshot; a follower
	// holds it passively until promotion resumes the compensations. A
	// snapshot without sagas clears the follower's set: a saga it still
	// holds was settled by the leader, and resuming it on promotion would
	// compensate against a granted reservation.
	if err := b.sagas.Restore(st.Sagas); err != nil {
		return fmt.Errorf("bb: replication: restoring sagas: %w", err)
	}
	// Stream-side scratch state is superseded wholesale.
	r.pendingOps = make(map[string][]tunnelOpRecord)
	r.resvApply.Reset()
	r.setApplied(seq)
	if err := b.journal.Rotate(b.snapshotState); err != nil {
		// The WAL is degraded but the live state is correct; the sticky
		// journal error surfaces through its own stats.
		b.log.Error("replication: journal rotate after snapshot install failed", "err", err)
	}
	b.m.replSnapshotsInstalled.Inc()
	return nil
}

// handleVote answers an election vote request. Adopting any higher
// term before judging the candidate makes votes single-shot per term
// without a votedFor register: a second candidate at the same term
// fails the strictly-greater check. The applied-sequence restriction
// is what turns majority acknowledgement into durability — a candidate
// missing committed records cannot assemble a majority.
func (r *replicator) handleVote(p *signalling.JournalStreamPayload) *signalling.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p.Term <= r.term {
		return streamReply(false, r.appliedSeq, r.term)
	}
	r.stepDownLocked(p.Term, -1)
	if p.FromSeq < r.appliedSeq {
		return streamReply(false, r.appliedSeq, r.term)
	}
	// Grant. Reset the failover clock so this voter doesn't stand
	// against the candidate it just endorsed.
	r.lastHeard = time.Now()
	return streamReply(true, r.appliedSeq, r.term)
}

// ---------------------------------------------------------------------
// Elections.

// Promote stands this broker for election and, on a majority, makes it
// the group's leader: pumps start (each follower resyncs from a
// snapshot), the RAR epoch is fenced past anything the previous leader
// could have minted, and the data plane is resynced. Returns an error
// on a lost or superseded election — callers retry on another replica.
func (b *BB) Promote() error {
	if b.repl == nil {
		return fmt.Errorf("bb %s: not a replica group member", b.cfg.Domain)
	}
	return b.repl.promote()
}

func (r *replicator) promote() error {
	b := r.b
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("bb %s: replicator closed", b.cfg.Domain)
	}
	if r.role == replLeader {
		r.mu.Unlock()
		return nil
	}
	r.term++
	term := r.term
	cand := r.appliedSeq
	r.mu.Unlock()

	votes := 1 // own
	var lastErr error
	for id := range r.addrs {
		if id == r.id {
			continue
		}
		resp, err := r.callReplica(id, &signalling.Message{Type: signalling.MsgJournalStream, JournalStream: &signalling.JournalStreamPayload{
			Kind: signalling.StreamVote, Domain: b.cfg.Domain,
			Term: term, LeaderID: r.id, FromSeq: cand,
		}})
		if err != nil || resp.Result == nil {
			lastErr = err
			continue
		}
		if resp.Result.Granted {
			votes++
		} else if resp.Result.Term > term {
			r.observeTerm(resp.Result.Term, -1)
			return fmt.Errorf("bb %s: election at term %d superseded by term %d", b.cfg.Domain, term, resp.Result.Term)
		}
	}
	if majority := len(r.addrs)/2 + 1; votes < majority {
		return fmt.Errorf("bb %s: election lost at term %d: %d/%d votes (last error: %v)",
			b.cfg.Domain, term, votes, majority, lastErr)
	}

	r.mu.Lock()
	if r.term != term || r.closed {
		r.mu.Unlock()
		return fmt.Errorf("bb %s: election at term %d superseded", b.cfg.Domain, term)
	}
	r.role = replLeader
	r.leaderID = r.id
	r.acks = make(map[int]int64)
	r.startPumpsLocked()
	r.mu.Unlock()

	// Epoch fence: every epoch this leader mints is strictly above
	// anything the dead leader journaled but failed to replicate, so
	// the replay cache's epoch ordering rejects stale-leader writes.
	b.mu.Lock()
	b.rarEpoch += epochFenceStride
	b.mu.Unlock()
	b.syncDataPlane()
	// The dead leader's rollback debt streamed here with its journal;
	// as leader this replica now owes it, so start the compensations.
	if n := b.sagas.Resume(); n > 0 {
		b.log.Info("saga: resumed compensation after failover", "sagas", n)
	}
	b.m.replElections.Inc()
	b.recordFailoverEvent(term)
	b.log.Info("replication: won election", "term", term, "replica", r.id)
	return nil
}

// callReplica makes one ad-hoc RPC to a peer replica (elections only;
// pumps keep persistent clients).
func (r *replicator) callReplica(id int, msg *signalling.Message) (*signalling.Message, error) {
	c, err := r.dialReplica(id)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.CallTimeout(msg, r.callTimeout())
}

// electionLoop arms automatic failover: a follower that hears nothing
// for its (id-staggered) patience window stands for election. The
// stagger makes the lowest-id live replica win uncontested in the
// common case instead of splitting votes.
func (r *replicator) electionLoop(stop chan struct{}) {
	patience := r.b.cfg.ElectionTimeout * time.Duration(r.id+2) / 2
	tick := time.NewTicker(r.b.cfg.ElectionTimeout / 2)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		r.mu.Lock()
		stand := r.role == replFollower && !r.closed && time.Since(r.lastHeard) > patience
		r.mu.Unlock()
		if stand {
			if err := r.promote(); err != nil {
				r.b.log.Warn("replication: automatic election failed", "err", err)
			}
		}
	}
}

// recordFailoverEvent force-records an election win in the flight
// recorder: failovers are exactly the events someone will ask about.
func (b *BB) recordFailoverEvent(term int64) {
	if b.cfg.Recorder == nil {
		return
	}
	b.m.eventsForced.Inc()
	b.appendEvent(&obs.Event{
		Kind:    obs.EventFailover,
		Verdict: obs.VerdictGranted,
		Reason:  fmt.Sprintf("replica %d won term %d", b.cfg.ReplicaID, term),
	})
}

// redirect answers a mutating request arriving at a follower: callers
// must talk to the leader. The result names it so a client (or a
// human reading the error) can re-aim without a topology lookup.
func (b *BB) redirect() *signalling.Message {
	id, addr := b.repl.leader()
	b.m.replRedirects.Inc()
	resp := signalling.ErrorResult(fmt.Sprintf("%s: not the leader of the replica group (leader is replica %d)", b.cfg.Domain, id))
	resp.Result.PolicyInfo = map[string]string{
		"leader_replica": strconv.Itoa(id),
		"leader_addr":    addr,
	}
	return resp
}

// ---------------------------------------------------------------------
// Introspection for tests, experiments and the daemon's admin surface.

// ReplicationStatus is a point-in-time view of the broker's role in
// its replica group.
type ReplicationStatus struct {
	Replicated bool
	Leader     bool
	Replica    int
	LeaderID   int
	Term       int64
	AppliedSeq int64 // follower: last applied + re-journaled sequence
	CommitSeq  int64
	JournalSeq int64 // this incarnation's own journal sequence
}

// ReplicationStatus reports the broker's replication state (zero value
// with Replicated=false on an unreplicated broker).
func (b *BB) ReplicationStatus() ReplicationStatus {
	r := b.repl
	if r == nil {
		return ReplicationStatus{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReplicationStatus{
		Replicated: true,
		Leader:     r.role == replLeader,
		Replica:    r.id,
		LeaderID:   r.leaderID,
		Term:       r.term,
		AppliedSeq: r.appliedSeq,
		CommitSeq:  r.commitSeq,
		JournalSeq: b.journal.Seq(),
	}
}

// StateDigest serialises the broker's full durable state — reservation
// table, RAR replay cache, tunnel endpoints, batch replay cache — in
// the canonical snapshot encoding. Deterministic: two brokers holding
// identical state digest to identical bytes, which is how the failover
// suite proves a promoted follower byte-for-byte matches its dead
// leader.
func (b *BB) StateDigest() ([]byte, error) {
	return b.snapshotState()
}
