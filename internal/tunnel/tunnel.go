// Package tunnel manages aggregate end-to-end reservations and their
// sub-flow allocations. A tunnel is established once through the full
// hop-by-hop signalling path; afterwards "users authorized to use this
// tunnel can then request portions of this aggregate bandwidth by
// contacting just the two end domains — the intermediate domains do
// not need to be contacted as long as the total bandwidth remains less
// than the size of the tunnel."
//
// Sub-flow admission is the control plane's hot path — one tunnel may
// carry allocations for thousands of concurrent users — and every
// sub-flow op reaches an endpoint inside a batch, so an Endpoint is
// built for batches: one map and two plain counters under one mutex,
// and Batch applies a whole batch under one acquisition of it. The live
// total is a running counter (O(1) admit and release, no walk over the
// allocation set), and every successful mutation is stamped with the
// next generation. The owning broker journals an endpoint's mutations in
// generation order, so replay can tell from the generation alone whether
// a journaled op is already reflected, the next one, or out of order
// (see Tx.ReplayAlloc).
//
// The ids an endpoint keeps come in a batch, and a batch's ids are copied
// once, into a Keys, which the endpoint cuts its map keys from and
// counts (DESIGN.md §6.6, "batch op ids").
package tunnel

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// Endpoint is one end domain's view of an established tunnel.
type Endpoint struct {
	// RARID identifies the tunnel's establishing reservation.
	RARID string
	// Aggregate is the tunnel size.
	Aggregate units.Bandwidth
	// Window is the tunnel's validity interval.
	Window units.Window
	// PeerBB is the broker at the other end, whose identity the
	// signalling chain authenticated; only it may drive allocations
	// over the direct channel.
	PeerBB identity.DN
	// Owner is the user who established the tunnel.
	Owner identity.DN
	// Epoch is an opaque registration stamp set by the owning broker
	// (tunnel RAR ids may be cancelled and re-established; epochs never
	// repeat). The tunnel package carries it through snapshots without
	// interpreting it.
	Epoch int64

	mu sync.Mutex
	// allocs holds the live sub-flows, used their sum and gen the
	// generation of the last mutation; touched lists the Keys the running
	// batch took an id from or released one of. All four are guarded by
	// mu.
	allocs  map[string]held
	used    units.Bandwidth
	gen     int64
	touched []*Keys
}

// held is one live sub-flow: its bandwidth and the Keys its id is cut
// from, nil when the id is the caller's own string.
type held struct {
	bw   units.Bandwidth
	keys *Keys
}

// Keys is one string holding a batch's sub-flow ids, each behind its
// length, and the count of the bytes of it the endpoint still holds as
// map keys. An endpoint that keeps a batch's ids cuts them from one Keys
// instead of copying each, so a batch of n allocations costs two
// objects, not n. A Keys serves one Batch, which takes its ids in order
// (Tx.AllocateNext, Tx.ReplayAlloc); only that endpoint touches it, under
// its lock.
type Keys struct {
	text string
	// next is where the next id's length starts; live the text bytes
	// (ids and their lengths) of the keys the endpoint holds from text;
	// touched whether the Keys is on the endpoint's touched list.
	next    int
	live    int
	touched bool
}

// pinLimit bounds what a Keys pins: at the end of every Batch, the text
// of a Keys that still holds keys is at most pinLimit times the bytes of
// those keys. A Keys that falls below moves its survivors to copies of
// their own (DESIGN.md §6.6 gives the reason for a quarter).
const pinLimit = 4

// NewKeys copies the ids of the n ops for which id reports true into one
// Keys, in op order; it returns nil when there are none. id is called
// twice per op: once to size the text, once to fill it.
func NewKeys(n int, id func(i int) (string, bool)) *Keys {
	size := 0
	for i := 0; i < n; i++ {
		if s, ok := id(i); ok {
			size += keySize(s)
		}
	}
	if size == 0 {
		return nil
	}
	var b strings.Builder
	b.Grow(size)
	var length [10]byte
	for i := 0; i < n; i++ {
		if s, ok := id(i); ok {
			b.Write(wire.AppendUvarint(length[:0], uint64(len(s))))
			b.WriteString(s)
		}
	}
	return &Keys{text: b.String()}
}

// keySize is how many bytes of a Keys id takes.
func keySize(id string) int { return wire.SizeUvarint(uint64(len(id))) + len(id) }

// at returns the id whose length starts at off, a substring of the text,
// and where the one after it starts; "" past the last.
func (k *Keys) at(off int) (id string, next int) {
	n := 0
	for shift := 0; off < len(k.text); shift += 7 {
		c := k.text[off]
		off++
		n |= int(c&0x7f) << shift
		if c < 0x80 {
			break
		}
	}
	return k.text[off : off+n], off + n
}

// pop returns the id at k's cursor and moves the cursor past it.
func (k *Keys) pop() string {
	var id string
	id, k.next = k.at(k.next)
	return id
}

// NewEndpoint records an established tunnel at one end domain.
func NewEndpoint(rarID string, aggregate units.Bandwidth, w units.Window, peerBB, owner identity.DN) (*Endpoint, error) {
	if rarID == "" {
		return nil, fmt.Errorf("tunnel: empty RAR id")
	}
	if aggregate <= 0 {
		return nil, fmt.Errorf("tunnel: non-positive aggregate %v", aggregate)
	}
	if !w.Valid() {
		return nil, fmt.Errorf("tunnel: invalid window %v", w)
	}
	return &Endpoint{
		RARID:     rarID,
		Aggregate: aggregate,
		Window:    w,
		PeerBB:    peerBB,
		Owner:     owner,
		allocs:    make(map[string]held),
	}, nil
}

// Tx is a batch's access to the endpoint, valid only inside the Batch
// call that hands it out.
type Tx struct{ e *Endpoint }

// Batch runs fn with the endpoint's lock held, so the ops fn applies
// through its Tx are one atomic step to every other reader and writer.
// fn must do nothing but apply them: no journal append, registry,
// metrics or transport call runs under the lock (DESIGN.md §6.5).
func (e *Endpoint) Batch(fn func(Tx)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fn(Tx{e})
	e.settle()
}

// settle ends a batch: each Keys it touched that pins more than pinLimit
// times the bytes it still holds moves its survivors to copies of their
// own, deleted and inserted again under the copy.
func (e *Endpoint) settle() {
	for _, k := range e.touched {
		k.touched = false
		for off := 0; off < len(k.text) && k.live > 0 && k.live*pinLimit < len(k.text); {
			var id string
			id, off = k.at(off)
			if h, ok := e.allocs[id]; ok && h.keys == k {
				delete(e.allocs, id)
				e.allocs[strings.Clone(id)] = held{bw: h.bw}
				k.live -= keySize(id)
			}
		}
	}
	clear(e.touched)
	e.touched = e.touched[:0]
}

// touch puts k on the running batch's touched list.
func (e *Endpoint) touch(k *Keys) {
	if !k.touched {
		k.touched = true
		e.touched = append(e.touched, k)
	}
}

// take returns k's next id and touches k.
func (e *Endpoint) take(k *Keys) string {
	e.touch(k)
	return k.pop()
}

// hold records a live sub-flow whose id is cut from k, or is the
// caller's own when k is nil.
func (e *Endpoint) hold(subID string, k *Keys, bw units.Bandwidth) {
	e.allocs[subID] = held{bw, k}
	e.used += bw
	if k != nil {
		k.live += keySize(subID)
	}
}

// drop removes a live sub-flow and returns the bandwidth it held.
func (e *Endpoint) drop(subID string) (units.Bandwidth, bool) {
	h, exists := e.allocs[subID]
	if !exists {
		return 0, false
	}
	delete(e.allocs, subID)
	e.used -= h.bw
	if k := h.keys; k != nil {
		k.live -= keySize(subID)
		e.touch(k)
	}
	return h.bw, true
}

// Allocate admits a sub-flow of bw under subID, a string the caller
// owns and the endpoint keeps, and returns the mutation generation the
// admission was stamped with (for journaling).
func (tx Tx) Allocate(subID string, bw units.Bandwidth) (int64, error) {
	return tx.allocate(subID, nil, bw)
}

// AllocateNext admits a sub-flow of bw under k's next id, which the
// endpoint keeps as a substring of k. The id is taken whether or not the
// admission succeeds, so k stays in step with the caller's ops.
func (tx Tx) AllocateNext(k *Keys, bw units.Bandwidth) (int64, error) {
	return tx.allocate(tx.e.take(k), k, bw)
}

func (tx Tx) allocate(subID string, k *Keys, bw units.Bandwidth) (int64, error) {
	e := tx.e
	if subID == "" {
		return 0, fmt.Errorf("tunnel: empty sub-flow id")
	}
	if bw <= 0 {
		return 0, fmt.Errorf("tunnel: non-positive bandwidth %v", bw)
	}
	if _, exists := e.allocs[subID]; exists {
		return 0, fmt.Errorf("tunnel: sub-flow %q already allocated", subID)
	}
	if bw > e.Aggregate-e.used { // not used+bw: that can wrap
		return 0, fmt.Errorf("tunnel %s: allocation %v exceeds free capacity %v", e.RARID, bw, e.Aggregate-e.used)
	}
	e.hold(subID, k, bw)
	e.gen++
	return e.gen, nil
}

// Release frees the sub-flow, returning the bandwidth it held and the
// mutation generation of the release.
func (tx Tx) Release(subID string) (units.Bandwidth, int64, error) {
	e := tx.e
	bw, exists := e.drop(subID)
	if !exists {
		return 0, 0, fmt.Errorf("tunnel %s: unknown sub-flow %q", e.RARID, subID)
	}
	e.gen++
	return bw, e.gen, nil
}

// Gen reports the endpoint's current mutation generation.
func (tx Tx) Gen() int64 { return tx.e.gen }

// ReplayAlloc applies a journaled allocation of k's next id during
// recovery; the id is taken whatever the outcome, as AllocateNext takes
// it. A record the current state already reflects (gen at or below the
// endpoint's) is a no-op, as is an allocation whose sub-flow is already
// present — both are the expected shapes of a record that also survived
// in a snapshot. The caller feeds an endpoint's ops in generation order,
// each at the generation after the endpoint's.
func (tx Tx) ReplayAlloc(k *Keys, bw units.Bandwidth, gen int64) error {
	e := tx.e
	subID := e.take(k)
	if gen <= e.gen {
		return nil
	}
	e.gen = gen
	if subID == "" || bw <= 0 {
		return fmt.Errorf("tunnel: replay %s: invalid allocation %q (%v)", e.RARID, subID, bw)
	}
	if _, exists := e.allocs[subID]; exists {
		return nil
	}
	if bw > e.Aggregate-e.used {
		return fmt.Errorf("tunnel: replay %s: allocation %q overcommits the aggregate", e.RARID, subID)
	}
	e.hold(subID, k, bw)
	return nil
}

// ReplayRelease applies a journaled release during recovery; releases
// of absent sub-flows and already-reflected generations are no-ops.
func (tx Tx) ReplayRelease(subID string, gen int64) {
	e := tx.e
	if gen <= e.gen {
		return
	}
	e.gen = gen
	e.drop(subID)
}

// Allocate admits one sub-flow: a batch of one.
func (e *Endpoint) Allocate(subID string, bw units.Bandwidth) (gen int64, err error) {
	e.Batch(func(tx Tx) { gen, err = tx.Allocate(subID, bw) })
	return gen, err
}

// Release frees one sub-flow: a batch of one.
func (e *Endpoint) Release(subID string) (bw units.Bandwidth, gen int64, err error) {
	e.Batch(func(tx Tx) { bw, gen, err = tx.Release(subID) })
	return bw, gen, err
}

// Used returns the currently allocated sub-flow total.
func (e *Endpoint) Used() units.Bandwidth {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.used
}

// Len reports the number of live sub-flows.
func (e *Endpoint) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.allocs)
}

// SubFlows lists current allocations, sorted by id.
func (e *Endpoint) SubFlows() []string {
	e.mu.Lock()
	out := make([]string, 0, len(e.allocs))
	for id := range e.allocs {
		out = append(out, id)
	}
	e.mu.Unlock()
	sort.Strings(out)
	return out
}

// SubFlow is one live allocation in a snapshot.
type SubFlow struct {
	ID        string
	Bandwidth units.Bandwidth
}

// EndpointSnapshot is the persisted form of an endpoint. Sub-flows are
// sorted by id and every field is value-typed, so two endpoints
// holding the same state marshal to identical bytes — the property the
// crash-recovery tests assert on.
type EndpointSnapshot struct {
	RARID     string
	Aggregate units.Bandwidth
	Window    units.Window
	PeerBB    identity.DN
	Owner     identity.DN
	Epoch     int64
	Gen       int64
	SubFlows  []SubFlow
}

// Snapshot captures a consistent point-in-time view: it is taken under
// the endpoint's lock, so it holds every op of a batch or none.
func (e *Endpoint) Snapshot() EndpointSnapshot {
	e.mu.Lock()
	snap := EndpointSnapshot{
		RARID:     e.RARID,
		Aggregate: e.Aggregate,
		Window:    e.Window,
		PeerBB:    e.PeerBB,
		Owner:     e.Owner,
		Epoch:     e.Epoch,
		Gen:       e.gen,
	}
	for id, h := range e.allocs {
		snap.SubFlows = append(snap.SubFlows, SubFlow{ID: id, Bandwidth: h.bw})
	}
	e.mu.Unlock()
	sort.Slice(snap.SubFlows, func(i, j int) bool { return snap.SubFlows[i].ID < snap.SubFlows[j].ID })
	return snap
}

// Restore rebuilds an endpoint from a snapshot, validating that the
// recorded allocations fit the aggregate. Every sub-flow id goes into
// one Keys, so the snapshot's strings are not kept and the releases to
// come are counted as a batch's are.
func Restore(s EndpointSnapshot) (*Endpoint, error) {
	e, err := NewEndpoint(s.RARID, s.Aggregate, s.Window, s.PeerBB, s.Owner)
	if err != nil {
		return nil, err
	}
	e.Epoch = s.Epoch
	e.gen = s.Gen
	e.allocs = make(map[string]held, len(s.SubFlows))
	k := NewKeys(len(s.SubFlows), func(i int) (string, bool) { return s.SubFlows[i].ID, true })
	for _, sf := range s.SubFlows {
		if sf.ID == "" || sf.Bandwidth <= 0 {
			return nil, fmt.Errorf("tunnel: restore %s: invalid sub-flow %q (%v)", s.RARID, sf.ID, sf.Bandwidth)
		}
		if _, dup := e.allocs[sf.ID]; dup {
			return nil, fmt.Errorf("tunnel: restore %s: duplicate sub-flow %q", s.RARID, sf.ID)
		}
		// Compared against what is left, so the total cannot wrap around.
		if sf.Bandwidth > s.Aggregate-e.used {
			return nil, fmt.Errorf("tunnel: restore %s: allocations exceed aggregate %v at sub-flow %q", s.RARID, s.Aggregate, sf.ID)
		}
		e.hold(k.pop(), k, sf.Bandwidth)
	}
	return e, nil
}
