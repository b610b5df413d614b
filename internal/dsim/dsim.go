// Package dsim is a minimal discrete-event simulation kernel: a
// virtual clock and a priority queue of timestamped events. The
// DiffServ network simulator (internal/netsim) runs on top of it, so
// the Figure 4 misreservation experiment is deterministic and
// independent of wall-clock time.
package dsim

import (
	"container/heap"
	"fmt"
	"time"
)

// event is a callback scheduled at a virtual time.
type event struct {
	at  time.Duration
	seq uint64 // FIFO tiebreak for simultaneous events
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all event handlers run on the caller's goroutine.
type Sim struct {
	now   time.Duration
	queue eventHeap
	seq   uint64
}

// New creates a simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Schedule enqueues fn to run at absolute virtual time at. Scheduling
// in the past is an error.
func (s *Sim) Schedule(at time.Duration, fn func()) error {
	if fn == nil {
		return fmt.Errorf("dsim: nil event function")
	}
	if at < s.now {
		return fmt.Errorf("dsim: scheduling at %v before now %v", at, s.now)
	}
	s.seq++
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
	return nil
}

// After enqueues fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) error {
	if d < 0 {
		return fmt.Errorf("dsim: negative delay %v", d)
	}
	return s.Schedule(s.now+d, fn)
}

// Run executes events in timestamp order until the queue drains or the
// horizon passes. It returns the number of events executed. Events
// scheduled beyond horizon remain queued; a zero horizon means run to
// exhaustion.
func (s *Sim) Run(horizon time.Duration) int {
	n := 0
	for len(s.queue) > 0 {
		next := s.queue[0]
		if horizon > 0 && next.at > horizon {
			s.now = horizon
			return n
		}
		heap.Pop(&s.queue)
		s.now = next.at
		next.fn()
		n++
	}
	if horizon > 0 && s.now < horizon {
		s.now = horizon
	}
	return n
}
