// Package saga is the broker's reusable two-phase compensation layer:
// a multi-step operation registers a compensation for every step it
// completes, then either commits (nothing to undo) or aborts, at which
// point the registered compensations run — persistently retried with
// backoff — until each settles. Sagas are journal-backed: every
// transition appends a record through the caller's write-ahead log, so
// a crashed coordinator resumes its unfinished rollbacks on recovery
// (presumed abort: a saga that never committed is aborted and
// compensated). The bandwidth broker drives it for multi-path split
// reservations and for the downstream-cancel rollbacks that used to be
// an ad-hoc goroutine in internal/bb/robust.go.
package saga

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"e2eqos/internal/journal"
)

// Journal is the append-only log sagas persist through. *journal.Journal
// satisfies it; a nil Journal keeps the coordinator memory-only (sagas
// still run, they just don't survive a crash).
type Journal interface {
	Append(op string, data journal.BinaryRecord) error
}

// Journal record vocabulary. All six ops carry one payload type (record,
// binwire.go); the "saga." prefix routes them to ApplyRecord during
// recovery and on replication followers.
const (
	OpBegin  = "saga.begin"  // saga created
	OpStep   = "saga.step"   // compensation registered for a completed step
	OpCommit = "saga.commit" // forward path succeeded, compensations dropped
	OpAbort  = "saga.abort"  // forward path failed, compensations due
	OpComp   = "saga.comp"   // one compensation executed to completion
	OpDone   = "saga.done"   // every compensation settled, saga closed
)

// IsSagaOp reports whether a journal op belongs to this vocabulary.
func IsSagaOp(op string) bool {
	return len(op) > 5 && op[:5] == "saga."
}

// Step is one registered compensation: Kind selects the executor, Data
// is its argument, opaque to this package. Done flips when the
// compensation has executed to completion after an abort.
type Step struct {
	ID   int
	Kind string
	Data []byte
	Done bool
}

// Exec runs one compensation. A nil error means the compensation
// settled; an error schedules a retry with backoff.
type Exec func(data []byte) error

// Snap is the snapshot form of one live saga, for journal rotation.
type Snap struct {
	ID       string
	Aborting bool
	Steps    []Step
}

// record is the payload of every saga journal record: begin, commit,
// abort and done name the saga; step carries the registered Step whole;
// comp names the settled step and carries Done.
type record struct {
	ID   string
	Step Step
}

// sagaState is one live saga.
type sagaState struct {
	id       string
	steps    []Step
	aborting bool
	// abandoned marks steps this incarnation gave up on after
	// exhausting retries; they stay un-Done in the journal so a restart
	// retries them with a fresh budget.
	abandoned map[int]bool
}

// step finds a registered step by id.
func (s *sagaState) step(id int) *Step {
	for i := range s.steps {
		if s.steps[i].ID == id {
			return &s.steps[i]
		}
	}
	return nil
}

func (s *sagaState) pending() *Step {
	// Compensate in reverse registration order (LIFO), skipping steps
	// already settled or abandoned this incarnation.
	for i := len(s.steps) - 1; i >= 0; i-- {
		st := &s.steps[i]
		if !st.Done && !s.abandoned[st.ID] {
			return st
		}
	}
	return nil
}

// Options configures a Coordinator.
type Options struct {
	// Journal persists transitions (nil: memory-only).
	Journal Journal
	// Backoff is the initial compensation retry delay, doubling per
	// attempt (default 10ms).
	Backoff time.Duration
	// MaxAttempts bounds compensation retries per incarnation (default
	// 5). An exhausted step is abandoned — reported through OnAbandoned
	// and left un-done in the journal, so a restarted coordinator
	// retries it with a fresh budget.
	MaxAttempts int
	// OnAborted fires when a saga enters the aborting state, including
	// presumed aborts during Resume.
	OnAborted func(id string)
	// OnCompensated fires after each compensation settles.
	OnCompensated func(id string, step Step)
	// OnAbandoned fires when a compensation exhausts MaxAttempts.
	OnAbandoned func(id string, step Step)
}

// Coordinator owns the live saga set and the compensation workers.
type Coordinator struct {
	mu      sync.Mutex
	opts    Options
	journal Journal
	execs   map[string]Exec
	sagas   map[string]*sagaState
	nextID  map[string]int // per-saga step id mint

	stop    chan struct{}
	stopped bool
	wg      sync.WaitGroup
}

// New builds a coordinator. Executors are registered before any saga
// runs; the journal may be attached later (recovery opens it after the
// coordinator exists).
func New(opts Options) *Coordinator {
	if opts.Backoff <= 0 {
		opts.Backoff = 10 * time.Millisecond
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 5
	}
	return &Coordinator{
		opts:    opts,
		journal: opts.Journal,
		execs:   make(map[string]Exec),
		sagas:   make(map[string]*sagaState),
		nextID:  make(map[string]int),
		stop:    make(chan struct{}),
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

// Begin creates a saga. IDs are caller-minted and must be unique among
// live sagas (the broker stamps its epoch counter into them).
func (c *Coordinator) Begin(id string) error {
	c.mu.Lock()
	if _, dup := c.sagas[id]; dup {
		c.mu.Unlock()
		return fmt.Errorf("saga: duplicate id %q", id)
	}
	c.sagas[id] = &sagaState{id: id, abandoned: make(map[int]bool)}
	c.mu.Unlock()
	c.append(OpBegin, record{ID: id})
	return nil
}

// Did registers the compensation for a step the forward path just
// completed (or is about to attempt with an unknowable outcome — the
// compensation must then be idempotent). Journaled before it returns,
// so a crash after the forward action still finds the debt on replay.
func (c *Coordinator) Did(id, kind string, data []byte) error {
	c.mu.Lock()
	s, ok := c.sagas[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("saga: unknown saga %q", id)
	}
	c.nextID[id]++
	st := Step{ID: c.nextID[id], Kind: kind, Data: append([]byte(nil), data...)}
	s.steps = append(s.steps, st)
	c.mu.Unlock()
	c.append(OpStep, record{ID: id, Step: st})
	return nil
}

// Commit closes a saga whose forward path fully succeeded: the
// registered compensations are dropped.
func (c *Coordinator) Commit(id string) {
	c.mu.Lock()
	delete(c.sagas, id)
	delete(c.nextID, id)
	c.mu.Unlock()
	c.append(OpCommit, record{ID: id})
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
	c.append(OpAbort, record{ID: id})
	if c.opts.OnAborted != nil {
		c.opts.OnAborted(id)
	}
	go c.compensate(id)
}

// compensate drains a saga's pending compensations, newest first, each
// retried with exponential backoff up to MaxAttempts. When every step
// settled the saga closes (OpDone); abandoned steps keep the saga held
// open so snapshots and restarts retain the debt.
func (c *Coordinator) compensate(id string) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		s, ok := c.sagas[id]
		if !ok || c.stopped {
			c.mu.Unlock()
			return
		}
		st := s.pending()
		if st == nil {
			clean := len(s.abandoned) == 0
			if clean {
				delete(c.sagas, id)
				delete(c.nextID, id)
			}
			c.mu.Unlock()
			if clean {
				c.append(OpDone, record{ID: id})
			}
			return
		}
		step := *st
		exec := c.execs[step.Kind]
		c.mu.Unlock()

		settled := false
		backoff := c.opts.Backoff
		for attempt := 0; exec != nil && attempt < c.opts.MaxAttempts; attempt++ {
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
		if settled {
			c.mu.Lock()
			s.step(step.ID).Done = true
			c.mu.Unlock()
			c.append(OpComp, record{ID: id, Step: Step{ID: step.ID, Done: true}})
			if c.opts.OnCompensated != nil {
				c.opts.OnCompensated(id, step)
			}
			continue
		}
		// Exhausted (or no executor): abandon for this incarnation. The
		// journal keeps the step un-done, so a restart retries it.
		c.mu.Lock()
		s.abandoned[step.ID] = true
		c.mu.Unlock()
		if c.opts.OnAbandoned != nil {
			c.opts.OnAbandoned(id, step)
		}
	}
}

// ApplyRecord replays one journal record into the coordinator's state
// without running anything: boot recovery and replication followers
// share it. Returns whether the op belonged to the saga vocabulary.
func (c *Coordinator) ApplyRecord(rec journal.Record) (bool, error) {
	var r record
	if IsSagaOp(rec.Op) {
		if err := rec.Decode(&r); err != nil {
			return false, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sagas[r.ID]
	switch rec.Op {
	case OpBegin:
		if s == nil {
			c.sagas[r.ID] = &sagaState{id: r.ID, abandoned: make(map[int]bool)}
		}
	case OpStep:
		if s != nil && s.step(r.Step.ID) == nil {
			s.steps = append(s.steps, r.Step)
			c.nextID[r.ID] = max(c.nextID[r.ID], r.Step.ID)
		}
	case OpCommit, OpDone:
		delete(c.sagas, r.ID)
		delete(c.nextID, r.ID)
	case OpAbort:
		if s != nil {
			s.aborting = true
		}
	case OpComp:
		if s != nil {
			if st := s.step(r.Step.ID); st != nil {
				st.Done = true
			}
		}
	default:
		return false, nil
	}
	return true, nil
}

// Resume restarts compensation after recovery: every recovered saga is
// presumed aborted — one that had committed would have vanished with
// its OpCommit record — and its unfinished compensations re-run with a
// fresh retry budget. Returns how many sagas resumed. Call once, after
// ApplyRecord/Restore replayed everything and the journal is
// attached.
func (c *Coordinator) Resume() int {
	c.mu.Lock()
	var ids []string
	var presumed []string
	for id, s := range c.sagas {
		if !s.aborting {
			presumed = append(presumed, id)
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	sort.Strings(presumed)
	for _, id := range ids {
		c.sagas[id].aborting = true
		c.wg.Add(1)
	}
	c.mu.Unlock()
	for _, id := range presumed {
		c.append(OpAbort, record{ID: id})
	}
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
	for _, s := range c.sagas {
		snaps = append(snaps, Snap{ID: s.id, Aborting: s.aborting, Steps: append([]Step(nil), s.steps...)})
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
	c.nextID = make(map[string]int, len(snaps))
	for _, sn := range snaps {
		c.sagas[sn.ID] = &sagaState{id: sn.ID, aborting: sn.Aborting, steps: sn.Steps, abandoned: make(map[int]bool)}
		for _, st := range sn.Steps {
			c.nextID[sn.ID] = max(c.nextID[sn.ID], st.ID)
		}
	}
	return nil
}

// Live reports how many sagas are open (active or compensating) —
// rollback debt an operator can alarm on.
func (c *Coordinator) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sagas)
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
