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
package tunnel

import (
	"fmt"
	"sort"
	"sync"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
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
	// generation of the last mutation; all three are guarded by mu.
	allocs map[string]units.Bandwidth
	used   units.Bandwidth
	gen    int64
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
		allocs:    make(map[string]units.Bandwidth),
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
}

// Allocate admits a sub-flow of bw under subID and returns the
// mutation generation the admission was stamped with (for journaling).
func (tx Tx) Allocate(subID string, bw units.Bandwidth) (int64, error) {
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
	e.allocs[subID] = bw
	e.used += bw
	e.gen++
	return e.gen, nil
}

// Release frees the sub-flow, returning the bandwidth it held and the
// mutation generation of the release.
func (tx Tx) Release(subID string) (units.Bandwidth, int64, error) {
	e := tx.e
	bw, exists := e.allocs[subID]
	if !exists {
		return 0, 0, fmt.Errorf("tunnel %s: unknown sub-flow %q", e.RARID, subID)
	}
	delete(e.allocs, subID)
	e.used -= bw
	e.gen++
	return bw, e.gen, nil
}

// Gen reports the endpoint's current mutation generation.
func (tx Tx) Gen() int64 { return tx.e.gen }

// ReplayAlloc applies a journaled allocation during recovery. A record
// the current state already reflects (gen at or below the endpoint's)
// is a no-op, as is an allocation whose sub-flow is already present —
// both are the expected shapes of a record that also survived in a
// snapshot. The caller feeds an endpoint's ops in generation order, each
// at the generation after the endpoint's.
func (tx Tx) ReplayAlloc(subID string, bw units.Bandwidth, gen int64) error {
	e := tx.e
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
	e.allocs[subID] = bw
	e.used += bw
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
	if bw, exists := e.allocs[subID]; exists {
		delete(e.allocs, subID)
		e.used -= bw
	}
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

// Gen reports the endpoint's current mutation generation.
func (e *Endpoint) Gen() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen
}

// Lookup reports the bandwidth held by a sub-flow.
func (e *Endpoint) Lookup(subID string) (units.Bandwidth, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	bw, ok := e.allocs[subID]
	return bw, ok
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
	for id, bw := range e.allocs {
		snap.SubFlows = append(snap.SubFlows, SubFlow{ID: id, Bandwidth: bw})
	}
	e.mu.Unlock()
	sort.Slice(snap.SubFlows, func(i, j int) bool { return snap.SubFlows[i].ID < snap.SubFlows[j].ID })
	return snap
}

// Restore rebuilds an endpoint from a snapshot, validating that the
// recorded allocations fit the aggregate.
func Restore(s EndpointSnapshot) (*Endpoint, error) {
	e, err := NewEndpoint(s.RARID, s.Aggregate, s.Window, s.PeerBB, s.Owner)
	if err != nil {
		return nil, err
	}
	e.Epoch = s.Epoch
	e.gen = s.Gen
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
		e.allocs[sf.ID] = sf.Bandwidth
		e.used += sf.Bandwidth
	}
	return e, nil
}
