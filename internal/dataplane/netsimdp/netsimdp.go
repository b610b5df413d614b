// Package netsimdp adapts the packet-level netsim simulator to the
// dataplane interface. It is the default backend in experiment worlds:
// the broker installs profiles through the interface, and experiments
// that want packet-level behaviour attach a concrete edge marker and
// ingress policer to the plane (usually via World.NetsimPlane). Packets
// from a netsim source through those devices are what the experiments
// measure.
//
// A plane with no devices attached enforces nothing: profiles and the
// aggregate are remembered so they can be pushed when a device is
// attached later.
package netsimdp

import (
	"sync"

	"e2eqos/internal/dataplane"
	"e2eqos/internal/netsim"
	"e2eqos/internal/sla"
)

// Plane wraps a netsim edge marker and ingress policer. The zero
// value is usable (unattached); it is safe for concurrent use.
type Plane struct {
	mu      sync.Mutex
	edge    *netsim.EdgeMarker
	policer *netsim.Policer
	// profiles mirrors installed flow profiles so a late-attached edge
	// device receives them.
	profiles map[string]sla.TrafficProfile
	agg      sla.TrafficProfile
	aggSet   bool
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
	for flow, prof := range p.profiles {
		edge.InstallReservation(netsim.FlowID(flow), prof)
	}
}

// AttachPolicer wires the ingress policer into the plane and pushes
// the current aggregate if one was set before attachment.
func (p *Plane) AttachPolicer(policer *netsim.Policer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.policer = policer
	if policer != nil && p.aggSet {
		policer.SetAggregateRate(p.agg.Rate, p.agg.BucketBytes)
	}
}

// InstallProfile installs the flow's premium profile on the edge
// device (and remembers it for late attachment).
func (p *Plane) InstallProfile(flow string, prof sla.TrafficProfile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.profiles == nil {
		p.profiles = make(map[string]sla.TrafficProfile)
	}
	p.profiles[flow] = prof
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
// remembers it for late attachment).
func (p *Plane) SetAggregate(prof sla.TrafficProfile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.agg, p.aggSet = prof, true
	if p.policer != nil {
		p.policer.SetAggregateRate(prof.Rate, prof.BucketBytes)
	}
}
