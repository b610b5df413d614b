// Package tunnel manages aggregate end-to-end reservations and their
// sub-flow allocations. A tunnel is established once through the full
// hop-by-hop signalling path; afterwards "users authorized to use this
// tunnel can then request portions of this aggregate bandwidth by
// contacting just the two end domains — the intermediate domains do
// not need to be contacted as long as the total bandwidth remains less
// than the size of the tunnel."
//
// Sub-flow admission is the control plane's hot path — one tunnel may
// carry allocations for thousands of concurrent users — so an Endpoint
// is built for throughput: the live total is a running atomic counter
// (O(1) admit and release, no walk over the allocation set), and the
// sub-flow map is striped across shards keyed by sub-flow ID, so
// allocations of distinct flows never contend on one endpoint-wide
// mutex. Every successful mutation is stamped with a monotonically
// increasing generation, which is what lets a write-ahead journal
// replay concurrent-emission record streams in a correct per-flow
// order (see ReplayAlloc/ReplayRelease).
package tunnel

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
)

// numShards stripes the sub-flow map. 16 shards keep contention
// negligible at typical goroutine counts while the per-endpoint
// footprint stays small; the shard count is an internal detail and not
// part of the snapshot format.
const numShards = 16

// shard is one stripe of the sub-flow map.
type shard struct {
	mu     sync.Mutex
	allocs map[string]units.Bandwidth
}

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

	// used is the running sub-flow total in bits per second. Admission
	// is a CAS loop against it, so Used() is O(1) and the Aggregate
	// bound holds even for allocations racing across shards.
	used atomic.Int64
	// count tracks the live sub-flow population.
	count atomic.Int64
	// gen mints the mutation generation. It is advanced while holding
	// the mutated flow's shard lock, so generations of operations on
	// the same sub-flow ID are strictly ordered.
	gen atomic.Int64

	shards [numShards]shard
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
	e := &Endpoint{
		RARID:     rarID,
		Aggregate: aggregate,
		Window:    w,
		PeerBB:    peerBB,
		Owner:     owner,
	}
	for i := range e.shards {
		e.shards[i].allocs = make(map[string]units.Bandwidth)
	}
	return e, nil
}

// shardFor picks the stripe owning a sub-flow ID (FNV-1a).
func (e *Endpoint) shardFor(subID string) *shard {
	var h uint32 = 2166136261
	for i := 0; i < len(subID); i++ {
		h ^= uint32(subID[i])
		h *= 16777619
	}
	return &e.shards[h%numShards]
}

// Used returns the currently allocated sub-flow total.
func (e *Endpoint) Used() units.Bandwidth { return units.Bandwidth(e.used.Load()) }

// Free returns the unallocated tunnel bandwidth.
func (e *Endpoint) Free() units.Bandwidth { return e.Aggregate - e.Used() }

// Len reports the number of live sub-flows.
func (e *Endpoint) Len() int { return int(e.count.Load()) }

// Gen reports the endpoint's current mutation generation.
func (e *Endpoint) Gen() int64 { return e.gen.Load() }

// Allocate admits a sub-flow of bw under subID and returns the
// mutation generation the admission was stamped with (for journaling).
func (e *Endpoint) Allocate(subID string, bw units.Bandwidth) (int64, error) {
	if subID == "" {
		return 0, fmt.Errorf("tunnel: empty sub-flow id")
	}
	if bw <= 0 {
		return 0, fmt.Errorf("tunnel: non-positive bandwidth %v", bw)
	}
	s := e.shardFor(subID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.allocs[subID]; exists {
		return 0, fmt.Errorf("tunnel: sub-flow %q already allocated", subID)
	}
	// CAS admission against the running total: allocations in other
	// shards race on used concurrently, and the loop guarantees the
	// Aggregate bound without any endpoint-wide lock.
	for {
		cur := e.used.Load()
		if bw > e.Aggregate-units.Bandwidth(cur) { // not cur+bw: that can wrap
			return 0, fmt.Errorf("tunnel %s: allocation %v exceeds free capacity %v",
				e.RARID, bw, e.Aggregate-units.Bandwidth(cur))
		}
		if e.used.CompareAndSwap(cur, cur+int64(bw)) {
			break
		}
	}
	s.allocs[subID] = bw
	e.count.Add(1)
	return e.gen.Add(1), nil
}

// Release frees the sub-flow, returning the bandwidth it held and the
// mutation generation of the release.
func (e *Endpoint) Release(subID string) (units.Bandwidth, int64, error) {
	s := e.shardFor(subID)
	s.mu.Lock()
	defer s.mu.Unlock()
	bw, exists := s.allocs[subID]
	if !exists {
		return 0, 0, fmt.Errorf("tunnel %s: unknown sub-flow %q", e.RARID, subID)
	}
	delete(s.allocs, subID)
	e.used.Add(-int64(bw))
	e.count.Add(-1)
	return bw, e.gen.Add(1), nil
}

// Lookup reports the bandwidth held by a sub-flow.
func (e *Endpoint) Lookup(subID string) (units.Bandwidth, bool) {
	s := e.shardFor(subID)
	s.mu.Lock()
	defer s.mu.Unlock()
	bw, ok := s.allocs[subID]
	return bw, ok
}

// SubFlows lists current allocations, sorted by id.
func (e *Endpoint) SubFlows() []string {
	out := make([]string, 0, e.Len())
	for i := range e.shards {
		s := &e.shards[i]
		s.mu.Lock()
		for id := range s.allocs {
			out = append(out, id)
		}
		s.mu.Unlock()
	}
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

// Snapshot captures a consistent point-in-time view: all shard locks
// are held together, so no allocation is caught between its admission
// and its generation stamp.
func (e *Endpoint) Snapshot() EndpointSnapshot {
	for i := range e.shards {
		e.shards[i].mu.Lock()
	}
	snap := EndpointSnapshot{
		RARID:     e.RARID,
		Aggregate: e.Aggregate,
		Window:    e.Window,
		PeerBB:    e.PeerBB,
		Owner:     e.Owner,
		Epoch:     e.Epoch,
		Gen:       e.gen.Load(),
	}
	for i := range e.shards {
		for id, bw := range e.shards[i].allocs {
			snap.SubFlows = append(snap.SubFlows, SubFlow{ID: id, Bandwidth: bw})
		}
	}
	for i := len(e.shards) - 1; i >= 0; i-- {
		e.shards[i].mu.Unlock()
	}
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
	e.gen.Store(s.Gen)
	var sum units.Bandwidth
	for _, sf := range s.SubFlows {
		if sf.ID == "" || sf.Bandwidth <= 0 {
			return nil, fmt.Errorf("tunnel: restore %s: invalid sub-flow %q (%v)", s.RARID, sf.ID, sf.Bandwidth)
		}
		sh := e.shardFor(sf.ID)
		if _, dup := sh.allocs[sf.ID]; dup {
			return nil, fmt.Errorf("tunnel: restore %s: duplicate sub-flow %q", s.RARID, sf.ID)
		}
		// Compared against what is left, so the total cannot wrap around.
		if sf.Bandwidth > s.Aggregate-sum {
			return nil, fmt.Errorf("tunnel: restore %s: allocations exceed aggregate %v at sub-flow %q", s.RARID, s.Aggregate, sf.ID)
		}
		sh.allocs[sf.ID] = sf.Bandwidth
		sum += sf.Bandwidth
	}
	e.used.Store(int64(sum))
	e.count.Store(int64(len(s.SubFlows)))
	return e, nil
}

// ReplayAlloc applies a journaled allocation during recovery. A record
// the current state already reflects (gen at or below the endpoint's)
// is a no-op, as is an allocation whose sub-flow is already present —
// both are the expected shapes of a record that also survived in a
// snapshot. The caller must feed records for one endpoint in ascending
// generation order; per-flow correctness follows because generations
// for one sub-flow ID are minted under its shard lock.
func (e *Endpoint) ReplayAlloc(subID string, bw units.Bandwidth, gen int64) error {
	if gen <= e.gen.Load() {
		return nil
	}
	e.gen.Store(gen)
	if subID == "" || bw <= 0 {
		return fmt.Errorf("tunnel: replay %s: invalid allocation %q (%v)", e.RARID, subID, bw)
	}
	s := e.shardFor(subID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.allocs[subID]; exists {
		return nil
	}
	if bw > e.Aggregate-units.Bandwidth(e.used.Load()) {
		return fmt.Errorf("tunnel: replay %s: allocation %q overcommits the aggregate", e.RARID, subID)
	}
	s.allocs[subID] = bw
	e.used.Add(int64(bw))
	e.count.Add(1)
	return nil
}

// ReplayRelease applies a journaled release during recovery; releases
// of absent sub-flows and already-reflected generations are no-ops.
func (e *Endpoint) ReplayRelease(subID string, gen int64) {
	if gen <= e.gen.Load() {
		return
	}
	e.gen.Store(gen)
	s := e.shardFor(subID)
	s.mu.Lock()
	defer s.mu.Unlock()
	bw, exists := s.allocs[subID]
	if !exists {
		return
	}
	delete(s.allocs, subID)
	e.used.Add(-int64(bw))
	e.count.Add(-1)
}
