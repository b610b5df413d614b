package bb

import (
	"slices"
	"strings"
	"sync"

	"e2eqos/internal/signalling"
)

// registry is the broker's one shape of epoch-ruled keyed state
// (DESIGN.md §6.4): route entries keyed by route key and tunnel
// registrations keyed by RAR id. (A registration's batch replay cache is
// a batchCache: its entries live by their sender's low-water, not by
// epoch, and reuse entry and replay.) One map, one lock, and three things
// written once, here:
//
//   - The in-flight dedup protocol. A live entry begins as a placeholder,
//     or begin hands back the entry already under its key; the owner
//     settles the placeholder, journals it, then closes done, and a
//     duplicate replays the outcome once done is closed.
//   - The epoch rules. Ids come from requesters and are reused after a
//     cancel, so each registration carries an epoch that never repeats.
//     A replayed registration replaces only a lower epoch — an equal one
//     is the same registration, already here — and a removal evicts only
//     at its exact epoch, so a stale one leaves a fresh registration be.
//   - The sorted listing snapshots are cut from.
type registry[V any] struct {
	mu sync.RWMutex
	m  map[string]*entry[V]
}

// entry is one key's registration. key and epoch are fixed when it is
// inserted; val, outcome and pending change once, in settle, under the
// registry's lock. get, remove, at and list hand out copies made under it.
type entry[V any] struct {
	key     string
	epoch   int64
	val     V
	outcome *signalling.Message
	// pending marks a placeholder not settled yet: listings leave it out
	// (it journals itself when it settles) and its val is still empty.
	pending bool
	// done is closed once the entry has settled and been journaled; a
	// replayed entry shares settledCh.
	done chan struct{}
}

var settledCh = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

func newRegistry[V any]() *registry[V] { return &registry[V]{m: make(map[string]*entry[V])} }

// begin registers a placeholder under key, stamped with mint's epoch (0
// without one), or returns the entry already there with dup set. mint
// runs under the lock, so a duplicate takes no epoch; it must not block.
func (r *registry[V]) begin(key string, mint func() int64) (e *entry[V], dup bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, dup = r.m[key]; dup {
		return e, true
	}
	e = &entry[V]{key: key, pending: true, done: make(chan struct{})}
	if mint != nil {
		e.epoch = mint()
	}
	r.m[key] = e
	return e, false
}

// settle records what a placeholder became, ahead of the journal append
// that carries it: a snapshot cut in between must hold it, since a
// follower installing that snapshot never gets the record.
func (r *registry[V]) settle(e *entry[V], val V, outcome *signalling.Message) {
	r.mu.Lock()
	e.val, e.outcome, e.pending = val, outcome, false
	r.mu.Unlock()
}

// replay waits for e to settle and returns a shallow copy of its outcome
// (the server stamps each response with its call id), nil if it has none.
func (e *entry[V]) replay() *signalling.Message {
	<-e.done
	if e.outcome == nil {
		return nil
	}
	resp := *e.outcome
	return &resp
}

// register installs a settled entry replayed from the journal unless the
// key holds an equal or higher epoch, and reports whether it did.
func (r *registry[V]) register(key string, epoch int64, val V, outcome *signalling.Message) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, held := r.m[key]; held && cur.epoch >= epoch {
		return false
	}
	r.m[key] = &entry[V]{key: key, epoch: epoch, val: val, outcome: outcome, done: settledCh}
	return true
}

// remove evicts key's registration of exactly epoch and returns it.
func (r *registry[V]) remove(key string, epoch int64) (entry[V], bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, held := r.m[key]; held && e.epoch == epoch {
		delete(r.m, key)
		return *e, true
	}
	return entry[V]{}, false
}

// evict is remove for a key decoded in place out of a journal record:
// the lookup reads it without a copy.
func (r *registry[V]) evict(key []byte, epoch int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, held := r.m[string(key)]; held && e.epoch == epoch {
		delete(r.m, e.key)
	}
}

func (r *registry[V]) get(key string) (entry[V], bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if e, held := r.m[key]; held {
		return *e, true
	}
	return entry[V]{}, false
}

// at is key's registration of exactly epoch: the one a record stamped
// with that epoch belongs to.
func (r *registry[V]) at(key string, epoch int64) (entry[V], bool) {
	e, held := r.get(key)
	return e, held && e.epoch == epoch
}

// list returns the settled entries, sorted by key.
func (r *registry[V]) list() []entry[V] {
	r.mu.RLock()
	out := make([]entry[V], 0, len(r.m))
	for _, e := range r.m {
		if !e.pending {
			out = append(out, *e)
		}
	}
	r.mu.RUnlock()
	slices.SortFunc(out, func(a, b entry[V]) int { return strings.Compare(a.key, b.key) })
	return out
}

// reset empties the registry in place: a snapshot install refills it,
// while handlers and gauges keep pointing at it.
func (r *registry[V]) reset() {
	r.mu.Lock()
	clear(r.m)
	r.mu.Unlock()
}

func (r *registry[V]) size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}
