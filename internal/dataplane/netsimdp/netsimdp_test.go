package netsimdp

import (
	"testing"

	"e2eqos/internal/dsim"
	"e2eqos/internal/netsim"
	"e2eqos/internal/sla"
	"e2eqos/internal/units"
)

func profile(rate units.Bandwidth, burst int64) sla.TrafficProfile {
	return sla.TrafficProfile{Rate: rate, BucketBytes: burst}
}

// send pushes n packets of size bytes of flow into r at the simulator's
// current time, marked class.
func send(r netsim.Receiver, flow netsim.FlowID, class netsim.Class, n, size int) {
	for i := 0; i < n; i++ {
		r.Receive(&netsim.Packet{Flow: flow, Size: size, Class: class})
	}
}

// premiumBytes is what the sink received of flow still marked premium.
func premiumBytes(sink *netsim.Sink, flow netsim.FlowID) int64 {
	st := sink.Stats(flow)
	if st == nil {
		return 0
	}
	return st.RxBytesByCls[netsim.Premium]
}

func TestAttachEdgeReplaysProfiles(t *testing.T) {
	sim := dsim.New()
	sink := netsim.NewSink(sim)
	p := New()
	p.InstallProfile("alice", profile(8*units.Mbps, 10_000))

	edge := netsim.NewEdgeMarker(sim, sink)
	p.AttachEdge(edge)
	// The profile replayed onto the late-attached edge: its 10 KB burst
	// leaves marked premium, the rest is demoted.
	send(edge, "alice", netsim.BestEffort, 15, 1000)
	if got := premiumBytes(sink, "alice"); got != 10_000 {
		t.Fatalf("premium bytes through the late-attached edge = %d, want the 10000 burst", got)
	}
	if got := sink.Stats("alice").RxBytesByCls[netsim.BestEffort]; got != 5_000 {
		t.Fatalf("demoted bytes = %d, want the 5 packets past the burst", got)
	}
	p.RemoveProfile("alice")
	p.InstallProfile("bob", profile(8*units.Mbps, 10_000))
	send(edge, "alice", netsim.Premium, 1, 1000)
	send(edge, "bob", netsim.BestEffort, 1, 1000)
	if got := premiumBytes(sink, "alice"); got != 10_000 {
		t.Fatalf("RemoveProfile did not reach the edge device: premium bytes = %d", got)
	}
	if got := premiumBytes(sink, "bob"); got != 1000 {
		t.Fatalf("InstallProfile did not reach the attached edge: premium bytes = %d", got)
	}
}

func TestAttachPolicerPushesAggregate(t *testing.T) {
	sim := dsim.New()
	sink := netsim.NewSink(sim)
	p := New()
	p.SetAggregate(profile(8*units.Mbps, 10_000))

	policer := netsim.NewPolicer(sim, profile(0, 0), sink)
	p.AttachPolicer(policer)
	send(policer, "f", netsim.Premium, 12, 1000)
	if got := premiumBytes(sink, "f"); got != 10_000 || policer.Dropped != 2 {
		t.Fatalf("policer passed %d bytes and dropped %d packets, want the 10000 burst and 2", got, policer.Dropped)
	}
}

func TestSetAggregateReachesAttachedPolicer(t *testing.T) {
	sim := dsim.New()
	sink := netsim.NewSink(sim)
	p := New()
	policer := netsim.NewPolicer(sim, profile(0, 0), sink)
	p.AttachPolicer(policer)
	p.SetAggregate(profile(4*units.Mbps, 30_000))
	send(policer, "f", netsim.Premium, 31, 1000)
	if got := premiumBytes(sink, "f"); got != 30_000 || policer.Dropped != 1 {
		t.Fatalf("policer passed %d bytes and dropped %d packets, want the 30000 burst and 1", got, policer.Dropped)
	}
}
