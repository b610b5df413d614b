// Package netsimdp is the simulation data plane: what every experiment
// World's broker programs, and what the experiments measure. A broker
// installs profiles and sets the aggregate through the dataplane
// interface; the plane enforces them two ways.
//
//   - Packet level. An experiment attaches a netsim edge marker and
//     ingress policer to the plane (World.Planes), and packets from a
//     netsim source through those devices are what it measures. A
//     plane with no devices attached remembers the profiles and the
//     aggregate and pushes them when a device is attached later.
//   - Closed form. Mark, Police and ClassStats meter offered bytes
//     against the same (r, b) token buckets at byte granularity, so
//     metering N bytes is O(1) whatever the packet count: what makes
//     metering the scenario fleet's 10^5 users affordable. The fleet
//     meters the planes its brokers programmed.
//
// The closed-form meters replace the packet-chunking Mark and Police
// the plane once had, which nothing called: metering the fleet needs
// window semantics (below), not packets. Each meter lives in the value
// the plane keeps for its profile, and programming the plane resets it
// in place.
package netsimdp

import (
	"sync"
	"time"

	"e2eqos/internal/dataplane"
	"e2eqos/internal/netsim"
	"e2eqos/internal/sla"
)

// bucket is a profile and its closed-form (r, b) token bucket at byte
// granularity.
type bucket struct {
	prof   sla.TrafficProfile
	tokens float64
	last   time.Duration
	primed bool
}

func newBucket(p sla.TrafficProfile) bucket {
	return bucket{prof: p, tokens: float64(p.BucketBytes)}
}

// touch advances the bucket to virtual time now. Refill earned since
// the last call is credited in full: a take models traffic offered
// over the whole elapsed window, not at an instant, so conformance
// over the window is (residual tokens + rate·dt). The bucket-depth cap
// is applied to the residual carried forward, not to the in-window
// refill.
func (b *bucket) touch(now time.Duration) {
	if !b.primed {
		b.last = now
		b.primed = true
		return
	}
	if now <= b.last {
		return
	}
	b.tokens += (now - b.last).Seconds() * (float64(b.prof.Rate) / 8)
	b.last = now
}

// take consumes up to bytes tokens for traffic offered over the window
// since the previous call, and returns how many it got.
func (b *bucket) take(bytes int64, now time.Duration) int64 {
	b.touch(now)
	got := float64(bytes)
	if got > b.tokens {
		got = b.tokens
	}
	if got < 0 {
		got = 0
	}
	b.tokens -= got
	if burst := float64(b.prof.BucketBytes); b.tokens > burst {
		b.tokens = burst
	}
	return int64(got)
}

// ClassStats is the closed-form byte accounting at the aggregate
// policer.
type ClassStats struct {
	// PremiumBytes counts premium bytes that conformed to the
	// aggregate profile and passed the policer.
	PremiumBytes int64
	// ExcessPremiumBytes counts premium bytes offered beyond the
	// aggregate profile.
	ExcessPremiumBytes int64
}

// Plane wraps a netsim edge marker and ingress policer, and meters in
// closed form. The zero value is usable (unattached, with a zero
// aggregate: all premium traffic is excess until SetAggregate); it is
// safe for concurrent use.
type Plane struct {
	mu      sync.Mutex
	edge    *netsim.EdgeMarker
	policer *netsim.Policer
	// profiles holds each installed flow's profile and meter; a
	// late-attached edge device receives the profiles.
	profiles map[string]bucket
	agg      bucket
	aggSet   bool
	stats    ClassStats
}

var _ dataplane.DataPlane = (*Plane)(nil)

// New returns an unattached plane.
func New() *Plane { return &Plane{} }

// AttachEdge wires the edge marker into the plane and replays any
// profiles installed before attachment.
func (p *Plane) AttachEdge(edge *netsim.EdgeMarker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.edge = edge
	if edge == nil {
		return
	}
	for flow, m := range p.profiles {
		edge.InstallReservation(netsim.FlowID(flow), m.prof)
	}
}

// AttachPolicer wires the ingress policer into the plane and pushes
// the current aggregate if one was set before attachment.
func (p *Plane) AttachPolicer(policer *netsim.Policer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.policer = policer
	if policer != nil && p.aggSet {
		policer.SetAggregateRate(p.agg.prof.Rate, p.agg.prof.BucketBytes)
	}
}

// InstallProfile installs the flow's premium profile on the edge
// device (and remembers it for late attachment), replacing and
// resetting the meter of any existing one.
func (p *Plane) InstallProfile(flow string, prof sla.TrafficProfile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.profiles == nil {
		p.profiles = make(map[string]bucket)
	}
	p.profiles[flow] = newBucket(prof)
	if p.edge != nil {
		p.edge.InstallReservation(netsim.FlowID(flow), prof)
	}
}

// RemoveProfile tears the flow's profile down.
func (p *Plane) RemoveProfile(flow string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.profiles, flow)
	if p.edge != nil {
		p.edge.RemoveReservation(netsim.FlowID(flow))
	}
}

// SetAggregate pushes the admitted aggregate to the policer (and
// remembers it for late attachment), resetting the aggregate meter.
func (p *Plane) SetAggregate(prof sla.TrafficProfile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.agg, p.aggSet = newBucket(prof), true
	if p.policer != nil {
		p.policer.SetAggregateRate(prof.Rate, prof.BucketBytes)
	}
}

// Mark meters bytes of flow traffic in closed form against the flow's
// profile and returns how many bytes leave the edge marked premium;
// unreserved flows mark nothing premium. The bytes are treated as
// offered over the window since the flow's previous Mark — call Mark
// with zero bytes at a window's start to open it (priming the meter)
// and with the accumulated bytes at its end. Virtual time must be
// monotone per plane.
func (p *Plane) Mark(flow string, bytes int64, now time.Duration) int64 {
	if bytes < 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	meter, ok := p.profiles[flow]
	if !ok {
		return 0
	}
	var got int64
	if bytes == 0 {
		meter.touch(now)
	} else {
		got = meter.take(bytes, now)
	}
	p.profiles[flow] = meter
	return got
}

// Police meters premium bytes against the aggregate in closed form,
// with the same window semantics as Mark, and returns how many pass.
func (p *Plane) Police(premium int64, now time.Duration) int64 {
	if premium < 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if premium == 0 {
		p.agg.touch(now)
		return 0
	}
	passed := p.agg.take(premium, now)
	p.stats.PremiumBytes += passed
	p.stats.ExcessPremiumBytes += premium - passed
	return passed
}

// ClassStats returns the aggregate byte accounting.
func (p *Plane) ClassStats() ClassStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
