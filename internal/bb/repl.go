package bb

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"e2eqos/internal/journal"
	"e2eqos/internal/obs"
	"e2eqos/internal/signalling"
)

// Replication (DESIGN.md §6.8): a replicated broker group elects one
// leader per term; the leader serves all mutating signalling and
// streams its journal — the same CRC-framed records the WAL holds — to
// every follower. Followers apply each record live (reservation table,
// RAR replay cache, tunnel state) and re-journal the frame verbatim,
// so a promoted follower's WAL is byte-compatible with the dead
// leader's. The leader keeps a frame in its journal's in-memory tail
// until every follower of the term has acknowledged it; a follower
// keeps none. A follower that lags past the tail's cap catches up from
// a full state snapshot, cut at an exact journal sequence.
//
// Commit = majority acknowledgement. The leader withholds a settlement
// (closing a reserve's done channel, answering a tunnel batch) until
// the journal sequence covering it is acked by a majority, so any
// outcome a caller ever saw survives the leader's death on at least
// one electable replica. Elections enforce that: a voter refuses any
// candidate whose applied sequence trails its own, so the winner holds
// every committed record.
const (
	// replTailBytes caps the leader's in-memory journal tail. A frame
	// leaves the tail once every follower acknowledged it, so only a
	// follower that stopped acknowledging reaches the cap; one further
	// behind than this resyncs from a snapshot.
	replTailBytes = 1 << 20
	// replBatchRecords caps the records per stream message.
	replBatchRecords = 256
	// replHeartbeat paces empty stream messages on an idle group: they
	// assert the leader's term and share the commit sequence.
	replHeartbeat = 100 * time.Millisecond
	// replEagerDelay is how long the pump leaves an append for the next
	// settle to take along before sending it on its own: one group-commit
	// window, so a record nobody waits for reaches the followers no later
	// than it reaches the local disk under the batch policy.
	replEagerDelay = journal.DefBatchInterval
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
	streams    []*stream     // leader: one per follower, for this term
	pumpStop   chan struct{} // non-nil while leading
	closed     bool
	lastHeard  time.Time // follower: last leader contact, for auto-election

	pumpWG sync.WaitGroup
	// inflight counts stream messages written and not yet answered,
	// over every follower (the bb_repl_inflight_frames gauge).
	inflight atomic.Int64

	// applyMu serializes stream application on a follower and guards
	// writes to appliedSeq: one connection's messages arrive in order on
	// its reader, but a redialled stream, or a new leader's, may overlap
	// the tail of the old one. It is the lock the broker's replayer runs
	// under once the broker is shared.
	applyMu sync.Mutex

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

// startPumpsLocked opens this term's stream to every follower and
// launches its pump. Caller holds r.mu (or owns r exclusively, during
// construction).
func (r *replicator) startPumpsLocked() {
	stop := make(chan struct{})
	r.pumpStop = stop
	r.streams = nil
	// Before any pump cuts its snapshot: every record past a snapshot must
	// be in the tail for the flush that follows it.
	r.b.journal.Retain(true)
	for id := range r.addrs {
		if id == r.id {
			continue
		}
		s := &stream{r: r, id: id, term: r.term, sent: -1, kick: make(chan struct{}, 1)}
		r.streams = append(r.streams, s)
		r.pumpWG.Add(1)
		go s.pump(stop)
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
		// A follower's tail has no reader: a promotion starts every
		// stream from a snapshot.
		r.b.journal.Retain(false)
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

// leading reports whether this replica still leads the given term.
func (r *replicator) leading(term int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role == replLeader && r.term == term && !r.closed
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
// Leader side: the pipelined stream, acknowledgements, group commit.

// stream is the leader's journal stream to one follower for one term:
// a pipeline of MsgJournalStream messages on a dedicated client (never
// the DN-keyed pool — every replica shares the domain DN), each
// splicing onto the one before it, none waiting for the previous
// answer. Three parties touch it. Whoever has records to get out writes
// them: the goroutine settling a reserve, cancel or tunnel batch
// (replWaitCommit) and, for appends nobody settles soon, the pump.
// The client's demux goroutine folds each answer into commitSeq
// (onAck). The pump alone does what takes time or a timer: dial, cut
// the snapshot a new or refused connection starts from, heartbeat an
// idle group, and give up on a connection whose oldest unanswered
// message is older than a call may be.
type stream struct {
	r    *replicator
	id   int
	term int64
	// acked is the highest sequence the follower acknowledged (r.mu).
	acked int64
	// kick tells the pump the stream has to start over, so the redial or
	// the snapshot does not wait for the next tick.
	kick chan struct{}

	// mu admits one writer at a time and guards the fields below. Only
	// writers take it — never the demux goroutine, which a writer
	// blocked in a send may be waiting on.
	mu   sync.Mutex
	conn *streamConn // nil while down
	// sent is the highest sequence written to conn; -1 means a snapshot
	// goes first (a new connection, or one that fell off the tail).
	sent int64
	// quiet is set by every pump tick and cleared by every message: a
	// tick that finds it still set heartbeats.
	quiet bool
	// recs and frames are flushLocked's scratch: the tail window and one
	// message's frames. Post encodes before it returns, so both are
	// reused, and cleared after each flush so they pin no frame the tail
	// has dropped.
	recs   []journal.StreamRecord
	frames [][]byte
}

// streamConn is one connection's worth of a stream. A refusal, a lost
// connection or an overdue answer condemns the connection and every
// message still in flight on it; the next one starts from a snapshot.
type streamConn struct {
	s      *stream
	client *signalling.Client
	ack    func(*signalling.Message) // onAck, bound once
	dead   atomic.Bool
}

// fail condemns the connection (once), names the cause, and wakes the
// pump to start over. Safe from any goroutine; takes no stream lock.
func (c *streamConn) fail(cause string) {
	if c.dead.Swap(true) {
		return
	}
	c.s.r.b.m.replStreamErrors.Inc()
	c.client.Close()
	c.s.resync(cause)
}

// resync counts one restart-from-snapshot of an established stream and
// hands it to the pump.
func (s *stream) resync(cause string) {
	s.r.b.m.replStreamResyncs.Inc()
	s.r.b.log.Warn("replication: stream restarts from a snapshot", "replica", s.id, "cause", cause)
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// onAck is the response callback of every message posted on c: it runs
// on the client's demux goroutine in the order the follower answered,
// or with nil once the client has died.
func (c *streamConn) onAck(resp *signalling.Message) {
	r := c.s.r
	r.inflight.Add(-1)
	switch {
	case resp == nil:
		c.fail("connection lost")
	case resp.Result == nil:
		c.fail("malformed acknowledgement")
	case resp.Result.Granted:
		r.noteAck(c.s, resp.Result.AckSeq)
	case resp.Result.Term > c.s.term:
		// A higher term exists: this leadership is over.
		r.observeTerm(resp.Result.Term, -1)
	default:
		// The follower could not splice or apply the message, so it will
		// refuse everything queued behind it too.
		c.fail("refusal")
	}
}

// post writes one stream message on c. Caller holds s.mu.
func (s *stream) post(c *streamConn, p *signalling.JournalStreamPayload) bool {
	r := s.r
	p.Domain, p.Term, p.LeaderID = r.b.cfg.Domain, s.term, r.id
	r.mu.Lock()
	p.CommitSeq = r.commitSeq
	r.mu.Unlock()
	r.inflight.Add(1)
	msg := &signalling.Message{Type: signalling.MsgJournalStream, JournalStream: p}
	if err := c.client.Post(msg, r.callTimeout(), c.ack); err != nil {
		r.inflight.Add(-1)
		c.fail("send failure")
		return false
	}
	s.quiet = false
	return true
}

// flushLocked writes whatever the journal holds past s.sent, in order.
// A stream that is down or owes a snapshot is left to the pump. Caller
// holds s.mu.
func (s *stream) flushLocked() {
	c := s.conn
	if c == nil || c.dead.Load() || s.sent < 0 {
		return
	}
	b := s.r.b
	recs, ok := b.journal.TailSince(s.recs[:0], s.sent)
	if !ok {
		if !s.r.leading(s.term) {
			// Stepping down dropped the tail; the pump is on its way out.
			return
		}
		// Fell off the in-memory tail. The connection is sound and what
		// is in flight on it is in order, so the snapshot queues behind.
		s.sent = -1
		s.resync("fell off the tail")
		return
	}
	s.recs = recs
	for len(recs) > 0 {
		n := min(len(recs), replBatchRecords)
		s.frames = s.frames[:0]
		for _, sr := range recs[:n] {
			s.frames = append(s.frames, sr.Frame)
		}
		posted := s.post(c, &signalling.JournalStreamPayload{FromSeq: s.sent, Records: s.frames})
		clear(s.frames)
		if !posted {
			break
		}
		b.m.replRecordsStreamed.Add(int64(n))
		s.sent = recs[n-1].Seq
		recs = recs[n:]
	}
	clear(s.recs)
}

// maintain is the pump's turn at the stream: retire a condemned or
// overdue connection, dial and snapshot a new one, write the tail,
// heartbeat on a quiet tick. It reports false when the pump should back
// off before trying again.
func (s *stream) maintain(tick bool) bool {
	r, b := s.r, s.r.b
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.conn; c != nil {
		if tick {
			if at, ok := c.client.OldestPost(); ok && time.Since(at) > r.callTimeout() {
				c.fail("ack timeout")
			}
		}
		if c.dead.Load() {
			s.conn = nil
			return false
		}
	}
	if s.conn == nil {
		// Replicas share the domain's identity: the one they authenticate
		// as is this broker's own.
		client, err := r.b.dial(fmt.Sprintf("replica %d", s.id), r.addrs[s.id], r.b.DN(), r.callTimeout())
		if err != nil {
			return false
		}
		c := &streamConn{s: s, client: client}
		c.ack = c.onAck
		// A reconnected follower may have restarted: snapshot first.
		s.conn, s.sent = c, -1
	}
	if s.sent < 0 {
		data, seq, err := b.journal.SnapshotWith(b.snapshotState)
		if err != nil {
			b.log.Error("replication: snapshot for follower failed", "replica", s.id, "err", err)
			return false
		}
		if !s.post(s.conn, &signalling.JournalStreamPayload{Snapshot: data, SnapSeq: seq}) {
			return false
		}
		b.m.replSnapshotsSent.Inc()
		s.sent = seq
	}
	s.flushLocked()
	if tick {
		// The heartbeat doubles as the term assert and commit-sequence
		// share on an idle group.
		if s.quiet && s.sent >= 0 {
			s.post(s.conn, &signalling.JournalStreamPayload{FromSeq: s.sent})
		}
		s.quiet = true
	}
	return true
}

// pump runs the stream until this term's leadership ends.
func (s *stream) pump(stop chan struct{}) {
	r := s.r
	defer r.pumpWG.Done()
	defer func() {
		s.mu.Lock()
		if c := s.conn; c != nil {
			c.dead.Store(true) // an ending, not a failure: nothing to count
			c.client.Close()
			s.conn = nil
		}
		s.mu.Unlock()
	}()
	ticker := time.NewTicker(min(replHeartbeat, r.callTimeout()))
	defer ticker.Stop()
	tick := false
	for {
		if !r.leading(s.term) {
			return
		}
		// Arm the change notification before reading the tail, so an
		// append racing the read wakes the wait below.
		changed := r.b.journal.Changes()
		ok := s.maintain(tick)
		tick = false
		if !ok {
			if !sleepOrStop(stop, replRedialBackoff) {
				return
			}
			continue
		}
		select {
		case <-stop:
			return
		case <-changed:
			// Most appends are settled moments later, and the settle
			// writes them (one message, not two). The pump sends only what
			// is still unsent a little later.
			if !sleepOrStop(stop, replEagerDelay) {
				return
			}
		case <-s.kick:
		case <-ticker.C:
			tick = true
		}
	}
}

// noteAck records a follower acknowledgement and recomputes the group
// commit sequence: the median of {leader's own sequence} ∪ follower
// acks — the highest sequence held by a majority. The lowest of them is
// held by every follower, so the journal's tail drops everything up to
// it. That reads acked, not sent: this demux goroutine must never take
// a stream's writer lock, and a frame sent but not yet acknowledged is
// only kept a little longer — a condemned connection restarts from a
// snapshot and reads nothing below it.
func (r *replicator) noteAck(s *stream, seq int64) {
	b := r.b
	var buf [8]int64 // on the stack for any group of up to eight
	seqs := append(buf[:0], b.journal.Seq())
	r.mu.Lock()
	if r.role == replLeader && r.term == s.term {
		if seq > s.acked {
			s.acked = seq
		}
		for _, f := range r.streams {
			seqs = append(seqs, f.acked)
		}
		slices.Sort(seqs)
		if commit := seqs[(len(seqs)-1)/2]; commit > r.commitSeq {
			r.commitSeq = commit
			r.commitCond.Broadcast()
		}
	}
	r.mu.Unlock()
	if len(seqs) > 1 {
		b.journal.Trim(seqs[0])
	}
	b.m.replAcks.Inc()
}

// replWaitCommit blocks a leader's settle path until the broker's own
// journal sequence — covering every record the settlement depends on —
// is majority-acknowledged, bounded by replCommitTimeout. The settling
// goroutine writes the unsent journal tail to every follower itself,
// then waits for the demux goroutines to fold the answers in. On an
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
	r.mu.Lock()
	if r.commitSeq >= target || r.role != replLeader || r.closed {
		r.mu.Unlock()
		return
	}
	streams := r.streams
	r.mu.Unlock()
	for _, s := range streams {
		// A stream someone else is writing — another settle, or the pump
		// mid-dial — is not waited for: the append that set target also
		// woke the pump, which sends whatever that writer misses.
		if s.mu.TryLock() {
			s.flushLocked()
			s.mu.Unlock()
		}
	}
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
	applied, err := r.applyMessage(p, r.appliedSeq)
	if applied != r.appliedSeq {
		r.mu.Lock()
		r.appliedSeq = applied
		r.mu.Unlock()
	}
	if err != nil {
		// Refused: the leader restarts the stream from a snapshot.
		b.m.replStreamErrors.Inc()
		b.log.Error("replication: stream message refused", "applied", applied, "err", err)
		return streamReply(false, applied, term)
	}
	b.maybeCheckpoint()
	return streamReply(true, applied, term)
}

// applyMessage installs the message's snapshot, if any, then applies its
// frames in order on top of applied, and returns the sequence reached —
// short of the message's end when it stops at an error. Caller holds
// applyMu.
func (r *replicator) applyMessage(p *signalling.JournalStreamPayload, applied int64) (int64, error) {
	if len(p.Snapshot) > 0 {
		if err := r.installSnapshot(p.Snapshot); err != nil {
			return applied, fmt.Errorf("installing snapshot: %w", err)
		}
		applied = p.SnapSeq
	}
	if len(p.Records) > 0 && p.FromSeq != applied {
		// A gap, or a copy of something already applied: nothing here
		// splices onto this follower's state.
		return applied, fmt.Errorf("frames follow sequence %d, this follower is at %d", p.FromSeq, applied)
	}
	for _, frame := range p.Records {
		if err := r.applyFrame(frame); err != nil {
			return applied, fmt.Errorf("applying record %d: %w", applied+1, err)
		}
		applied++
		r.b.m.replRecordsApplied.Inc()
	}
	return applied, nil
}

// applyFrame validates one raw journal frame (once: the checked Frame
// is what both the apply and the append below consume), applies it to
// the follower's live state, then re-journals it verbatim. Apply
// precedes append: a frame that fails to apply must not enter the WAL,
// and every applied frame is also journaled before it is acknowledged.
func (r *replicator) applyFrame(raw []byte) error {
	frame, err := journal.CheckFrame(raw)
	if err != nil {
		return err
	}
	if err := r.b.replay.apply(frame.Record()); err != nil {
		return err
	}
	return r.b.journal.AppendFrame(frame)
}

// installSnapshot replaces the follower's entire broker state with the
// leader's snapshot, then rotates the follower's own journal onto the
// installed state so no stale pre-resync suffix survives a restart.
func (r *replicator) installSnapshot(data []byte) error {
	b := r.b
	if err := b.replay.install(data); err != nil {
		return err
	}
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

	// Epoch fence: every epoch this leader mints is strictly above
	// anything the dead leader journaled but failed to replicate, so
	// the registries' epoch rules reject stale-leader writes.
	// Raised before the streams start: the counter rides every snapshot,
	// and one cut ahead of the fence would leave the followers' copy
	// behind the leader's until the next registration.
	b.epoch.Add(epochFenceStride)

	r.mu.Lock()
	if r.term != term || r.closed {
		r.mu.Unlock()
		return fmt.Errorf("bb %s: election at term %d superseded", b.cfg.Domain, term)
	}
	r.role = replLeader
	r.leaderID = r.id
	// Sequences are per incarnation: what the old leader called committed
	// says nothing about this broker's own journal numbering, which is
	// what settles wait on from here.
	r.commitSeq = 0
	r.startPumpsLocked()
	r.mu.Unlock()

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
	c, err := r.b.dial(fmt.Sprintf("replica %d", id), r.addrs[id], r.b.DN(), r.callTimeout())
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
