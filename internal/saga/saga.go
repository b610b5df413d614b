// Package saga is the broker's reusable two-phase compensation layer:
// a multi-step operation registers a compensation for every step it
// completes, then either commits (nothing to undo) or aborts, at which
// point the registered compensations run — persistently retried with
// backoff — until each settles. Sagas are journal-backed: every
// registered step and every settlement appends a record through the
// caller's write-ahead log, so a crashed coordinator resumes its
// unfinished rollbacks on recovery (presumed abort: every saga still
// open is aborted and compensated). The bandwidth broker drives it for
// multi-path split reservations and for downstream-cancel rollbacks.
package saga

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"e2eqos/internal/journal"
)

// Journal is the append-only log sagas persist through. *journal.Journal
// satisfies it; a coordinator with none attached is memory-only (sagas
// still run, they just don't survive a crash).
type Journal interface {
	Append(op string, data journal.BinaryRecord) error
}

// Journal record vocabulary: what recovery, a follower and Resume read.
// All three ops carry one payload type (record, binwire.go). An abort is
// never journaled: every saga a recovered or promoted coordinator finds
// open is presumed aborted.
const (
	OpStep = "saga.step" // compensation registered; step 1 opens the saga
	OpComp = "saga.comp" // one compensation settled, others still owed
	OpEnd  = "saga.end"  // saga closed: committed, or its last compensation settled
)

// IsSagaOp reports whether a journal op belongs to this package's
// namespace — known to this build or not.
func IsSagaOp(op string) bool {
	return len(op) > 5 && op[:5] == "saga."
}

// Attempts bounds each step's compensation retries per incarnation. An
// exhausted step is abandoned — reported through OnAbandoned and left
// un-done in the journal, so a restarted coordinator retries it with a
// fresh budget.
const Attempts = 5

// Step is one registered compensation: ID is its position in the saga
// (from 1), Kind selects the executor, Data is its argument, opaque to
// this package. Done flips when the compensation has executed to
// completion after an abort.
type Step struct {
	ID   int
	Kind string
	Data []byte
	Done bool
	// abandoned marks a step this incarnation gave up on; it stays
	// un-Done in the journal, so a restart retries it.
	abandoned bool
}

// Exec runs one compensation. A nil error means the compensation
// settled; an error schedules a retry with backoff.
type Exec func(data []byte) error

// Snap is the snapshot form of one live saga, for journal rotation.
type Snap struct {
	ID    string
	Steps []Step
}

// record is the payload of every saga journal record: a step carries the
// registered Step whole, comp names the settled step and carries Done,
// end names only the saga.
type record struct {
	ID   string
	Step Step
}

// sagaState is one live saga; aborting lives in memory only.
type sagaState struct {
	steps    []Step
	aborting bool
}

// pending is the index of the step to compensate next — the newest one
// neither settled nor abandoned, compensations running in reverse
// registration order — or -1.
func (s *sagaState) pending() int {
	for i := len(s.steps) - 1; i >= 0; i-- {
		if !s.steps[i].Done && !s.steps[i].abandoned {
			return i
		}
	}
	return -1
}

// settled reports whether every step's compensation has settled.
func (s *sagaState) settled() bool {
	for i := range s.steps {
		if !s.steps[i].Done {
			return false
		}
	}
	return true
}

// Options configures a Coordinator.
type Options struct {
	// Backoff is the initial compensation retry delay, doubling per
	// attempt (default 10ms).
	Backoff time.Duration
	// OnAborted fires when a saga enters the aborting state, including
	// presumed aborts during Resume.
	OnAborted func(id string)
	// OnCompensated fires after each compensation settles.
	OnCompensated func(id string, step Step)
	// OnAbandoned fires when a compensation exhausts its Attempts.
	OnAbandoned func(id string, step Step)
}

// Coordinator owns the live saga set and the compensation workers.
type Coordinator struct {
	mu      sync.Mutex
	opts    Options
	journal Journal
	execs   map[string]Exec
	sagas   map[string]*sagaState
	// closing counts sagas deleted from sagas whose OpEnd is not yet
	// appended, or whose last callback has not returned. Live counts
	// them; Snapshot must not: a rotation between the delete and the
	// append would keep a saga whose OpEnd it truncates.
	closing int

	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// New builds a memory-only coordinator. Executors are registered before
// any saga runs; the journal is attached later (recovery opens it after
// the coordinator exists).
func New(opts Options) *Coordinator {
	if opts.Backoff <= 0 {
		opts.Backoff = 10 * time.Millisecond
	}
	return &Coordinator{
		opts:  opts,
		execs: make(map[string]Exec),
		sagas: make(map[string]*sagaState),
		stop:  make(chan struct{}),
	}
}

// RegisterExec installs the executor for a compensation kind.
func (c *Coordinator) RegisterExec(kind string, fn Exec) {
	c.mu.Lock()
	c.execs[kind] = fn
	c.mu.Unlock()
}

// AttachJournal wires the write-ahead log in after recovery replayed
// into the coordinator.
func (c *Coordinator) AttachJournal(j Journal) {
	c.mu.Lock()
	c.journal = j
	c.mu.Unlock()
}

func (c *Coordinator) append(op string, r record) {
	c.mu.Lock()
	j := c.journal
	c.mu.Unlock()
	if j == nil {
		return
	}
	_ = j.Append(op, r)
}

// Did registers the compensation for a step the forward path just
// completed (or is about to attempt with an unknowable outcome — the
// compensation must then be idempotent). The first step opens the saga:
// IDs are caller-minted and must not name a saga that has closed (the
// broker stamps its epoch counter into them). Journaled before it
// returns, so a crash after the forward action still finds the debt on
// replay.
func (c *Coordinator) Did(id, kind string, data []byte) {
	c.mu.Lock()
	s := c.sagas[id]
	if s == nil {
		s = &sagaState{}
		c.sagas[id] = s
	}
	st := Step{ID: len(s.steps) + 1, Kind: kind, Data: append([]byte(nil), data...)}
	s.steps = append(s.steps, st)
	c.mu.Unlock()
	c.append(OpStep, record{ID: id, Step: st})
}

// Commit closes a saga whose forward path fully succeeded: the
// registered compensations are dropped.
func (c *Coordinator) Commit(id string) {
	c.mu.Lock()
	delete(c.sagas, id)
	c.closing++
	c.mu.Unlock()
	c.append(OpEnd, record{ID: id})
	c.closed()
}

// closed ends a closing saga's count in Live once its OpEnd is
// appended and its callback has returned.
func (c *Coordinator) closed() {
	c.mu.Lock()
	c.closing--
	c.mu.Unlock()
}

// Abort marks a saga failed and starts its compensation worker. Safe
// to call once per saga; re-aborts no-op.
func (c *Coordinator) Abort(id string) {
	c.mu.Lock()
	s, ok := c.sagas[id]
	if !ok || s.aborting || c.stopped {
		c.mu.Unlock()
		return
	}
	s.aborting = true
	c.wg.Add(1)
	c.mu.Unlock()
	if c.opts.OnAborted != nil {
		c.opts.OnAborted(id)
	}
	go c.compensate(id)
}

// compensate drains a saga's pending compensations, newest first, each
// retried with exponential backoff up to Attempts. The settlement that
// leaves nothing owed closes the saga (OpEnd, in place of its OpComp);
// abandoned steps keep the saga open so snapshots and restarts retain
// the debt.
func (c *Coordinator) compensate(id string) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		s, ok := c.sagas[id]
		if !ok || c.stopped {
			c.mu.Unlock()
			return
		}
		i := s.pending()
		if i < 0 {
			// Nothing this incarnation can pay: closed if nothing is owed
			// (an older build's snapshot can hold such a saga), else held.
			end := s.settled()
			if end {
				delete(c.sagas, id)
				c.closing++
			}
			c.mu.Unlock()
			if end {
				c.append(OpEnd, record{ID: id})
				c.closed()
			}
			return
		}
		step := s.steps[i]
		exec := c.execs[step.Kind]
		c.mu.Unlock()

		settled := false
		backoff := c.opts.Backoff
		for attempt := 0; exec != nil && attempt < Attempts; attempt++ {
			if attempt > 0 {
				select {
				case <-c.stop:
					return
				case <-time.After(backoff):
				}
				backoff *= 2
			}
			if err := exec(step.Data); err == nil {
				settled = true
				break
			}
		}
		c.mu.Lock()
		if !settled {
			// Exhausted (or no executor): abandon for this incarnation. The
			// journal keeps the step un-done, so a restart retries it.
			s.steps[i].abandoned = true
			c.mu.Unlock()
			if c.opts.OnAbandoned != nil {
				c.opts.OnAbandoned(id, step)
			}
			continue
		}
		s.steps[i].Done = true
		end := s.settled()
		if end {
			delete(c.sagas, id)
			c.closing++
		}
		c.mu.Unlock()
		if end {
			c.append(OpEnd, record{ID: id})
		} else {
			c.append(OpComp, record{ID: id, Step: Step{ID: step.ID, Done: true}})
		}
		if c.opts.OnCompensated != nil {
			c.opts.OnCompensated(id, step)
		}
		if end {
			c.closed()
		}
	}
}

// ApplyRecord replays one journal record into the coordinator's state
// without running anything: boot recovery and replication followers
// share it. A record the state already reflects is a no-op, and so is a
// step of a saga that is not open unless it is step 1, which opens it.
// An op outside the vocabulary is an error: a journal written before
// the vocabulary shrank holds saga.commit, and skipping it would presume
// a committed saga aborted.
func (c *Coordinator) ApplyRecord(rec journal.Record) error {
	switch rec.Op {
	case OpStep, OpComp, OpEnd:
	default:
		return fmt.Errorf("saga: unknown journal op %q", rec.Op)
	}
	var r record
	if err := rec.Decode(&r); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sagas[r.ID]
	switch rec.Op {
	case OpStep:
		if s == nil && r.Step.ID == 1 {
			s = &sagaState{}
			c.sagas[r.ID] = s
		}
		if s != nil && r.Step.ID == len(s.steps)+1 {
			s.steps = append(s.steps, r.Step)
		}
	case OpComp:
		if s != nil && r.Step.ID >= 1 && r.Step.ID <= len(s.steps) {
			s.steps[r.Step.ID-1].Done = true
		}
	case OpEnd:
		delete(c.sagas, r.ID)
	}
	return nil
}

// Resume restarts compensation after recovery or a promotion: every
// saga still open is presumed aborted — one that had committed would
// have closed with its OpEnd record — and its unfinished compensations
// re-run with a fresh retry budget. Nothing is journaled for the abort.
// Returns how many sagas resumed. Call once, after ApplyRecord/Restore
// replayed everything and the journal is attached.
func (c *Coordinator) Resume() int {
	c.mu.Lock()
	ids := make([]string, 0, len(c.sagas))
	for id, s := range c.sagas {
		s.aborting = true
		ids = append(ids, id)
	}
	c.wg.Add(len(ids))
	c.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		if c.opts.OnAborted != nil {
			c.opts.OnAborted(id)
		}
		go c.compensate(id)
	}
	return len(ids)
}

// Snapshot serialises the live saga set, sorted for deterministic
// bytes; nil when no sagas are live. Journal rotation embeds it in the
// broker snapshot.
func (c *Coordinator) Snapshot() []byte {
	c.mu.Lock()
	snaps := make([]Snap, 0, len(c.sagas))
	for id, s := range c.sagas {
		snaps = append(snaps, Snap{ID: id, Steps: append([]Step(nil), s.steps...)})
	}
	c.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].ID < snaps[j].ID })
	return appendSnaps(nil, snaps)
}

// Restore replaces the saga set with a snapshot's; an empty snapshot
// leaves no saga live. Workers are not started — Resume does that once
// recovery completes.
func (c *Coordinator) Restore(data []byte) error {
	snaps, err := decodeSnaps(data)
	if err != nil {
		return fmt.Errorf("saga: decoding snapshot: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sagas = make(map[string]*sagaState, len(snaps))
	for _, sn := range snaps {
		c.sagas[sn.ID] = &sagaState{steps: sn.Steps}
	}
	return nil
}

// Live reports how many sagas are open (active or compensating) —
// rollback debt an operator can alarm on. A saga counts until its
// OpEnd is appended and its last callback has returned.
func (c *Coordinator) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sagas) + c.closing
}

// Close stops compensation workers between attempts and waits for
// in-flight executions to return. Pending debt stays journaled.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
}
