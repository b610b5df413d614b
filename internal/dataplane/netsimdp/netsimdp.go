// Package netsimdp adapts the packet-level netsim simulator to the
// dataplane interface. It is the default backend in experiment worlds:
// the broker installs profiles through the interface, and experiments
// that want packet-level behaviour attach a concrete edge marker and
// ingress policer to the plane (usually via World.NetsimPlane).
//
// A plane with no devices attached enforces nothing — profiles are
// remembered so they can be pushed when a device is attached later,
// and Mark/Police pass everything through. This mirrors the previous
// behaviour where a World without an attached simulator did no
// enforcement.
package netsimdp

import (
	"sync"
	"time"

	"e2eqos/internal/dataplane"
	"e2eqos/internal/netsim"
	"e2eqos/internal/sla"
)

// DefaultPacketBytes is the packet size used to quantise byte-level
// Mark/Police decisions against the packet simulator's meters.
const DefaultPacketBytes = 1250

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
	// PacketBytes quantises Mark/Police decisions; zero means
	// DefaultPacketBytes.
	PacketBytes int
}

var _ dataplane.DataPlane = (*Plane)(nil)

// New returns an unattached plane.
func New() *Plane { return &Plane{} }

// Name identifies the backend.
func (p *Plane) Name() string { return "netsim" }

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

// Policer returns the attached policer (nil if none).
func (p *Plane) Policer() *netsim.Policer {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.policer
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

// SetAggregate pushes the admitted aggregate to the policer.
func (p *Plane) SetAggregate(prof sla.TrafficProfile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.agg, p.aggSet = prof, true
	if p.policer != nil {
		p.policer.SetAggregateRate(prof.Rate, prof.BucketBytes)
	}
}

// Aggregate returns the last aggregate pushed through the plane.
func (p *Plane) Aggregate() sla.TrafficProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.agg
}

func (p *Plane) pktSize() int {
	if p.PacketBytes > 0 {
		return p.PacketBytes
	}
	return DefaultPacketBytes
}

// Mark meters bytes of flow traffic against the edge device's per-flow
// meter. With no edge attached, everything passes unenforced.
func (p *Plane) Mark(flow string, bytes int64, now time.Duration) int64 {
	p.mu.Lock()
	edge, size := p.edge, p.pktSize()
	p.mu.Unlock()
	if edge == nil {
		return bytes
	}
	return edge.MarkBytes(netsim.FlowID(flow), bytes, size, now)
}

// Police meters premium bytes against the policer's aggregate meter.
// With no policer attached, everything passes unenforced.
func (p *Plane) Police(premium int64, now time.Duration) int64 {
	p.mu.Lock()
	policer, size := p.policer, p.pktSize()
	p.mu.Unlock()
	if policer == nil {
		return premium
	}
	return policer.PoliceBytes(premium, size, now)
}

// FlowStats returns the edge device's per-flow marking counters. With
// no edge attached, it reports whether a profile is installed with
// zero counters.
func (p *Plane) FlowStats(flow string) (dataplane.FlowStats, bool) {
	p.mu.Lock()
	edge := p.edge
	prof, remembered := p.profiles[flow]
	p.mu.Unlock()
	if edge == nil {
		if !remembered {
			return dataplane.FlowStats{}, false
		}
		return dataplane.FlowStats{Installed: true, Profile: prof}, true
	}
	st := edge.FlowStats(netsim.FlowID(flow))
	if !st.Installed {
		return dataplane.FlowStats{}, false
	}
	return dataplane.FlowStats{
		Installed:    true,
		Profile:      st.Profile,
		PremiumBytes: st.PremiumBytes,
		DemotedBytes: st.DemotedBytes,
	}, true
}

// ClassStats returns the policer's byte accounting (zero when no
// policer is attached).
func (p *Plane) ClassStats() dataplane.ClassStats {
	p.mu.Lock()
	policer := p.policer
	p.mu.Unlock()
	if policer == nil {
		return dataplane.ClassStats{}
	}
	t := policer.Totals()
	return dataplane.ClassStats{
		PremiumBytes:       t.PremiumPassedBytes,
		BestEffortBytes:    t.BestEffortBytes,
		ExcessPremiumBytes: t.ExcessPremiumBytes,
	}
}
