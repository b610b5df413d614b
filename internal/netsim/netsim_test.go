package netsim

import (
	"testing"
	"time"

	"e2eqos/internal/dsim"
	"e2eqos/internal/sla"
	"e2eqos/internal/units"
)

func profile(rate units.Bandwidth) sla.TrafficProfile {
	return sla.TrafficProfile{Rate: rate, BucketBytes: 30_000}
}

func TestTokenBucketConform(t *testing.T) {
	tb := NewTokenBucket(8*units.Mbps, 1000) // 1 MB/s, 1000-byte bucket
	if !tb.Conform(1000, 0) {
		t.Fatal("full bucket must admit bucket-sized packet")
	}
	if tb.Conform(1, 0) {
		t.Fatal("empty bucket must reject")
	}
	// After 1 ms, 1000 bytes of tokens have accumulated.
	if !tb.Conform(1000, time.Millisecond) {
		t.Fatal("refilled bucket must admit")
	}
	// Bucket must cap at its size.
	if tb.Conform(2000, 10*time.Second) {
		t.Fatal("bucket exceeded its capacity")
	}
}

func TestTokenBucketTimeToConform(t *testing.T) {
	tb := NewTokenBucket(8*units.Mbps, 1000)
	if !tb.Conform(1000, 0) {
		t.Fatal("setup")
	}
	d := tb.TimeToConform(500, 0)
	if d != 500*time.Microsecond {
		t.Errorf("TimeToConform = %v, want 500µs", d)
	}
	if got := tb.TimeToConform(0, 0); got != 0 {
		t.Errorf("zero-size TimeToConform = %v", got)
	}
}

func TestTokenBucketMonotonicRefill(t *testing.T) {
	tb := NewTokenBucket(8*units.Mbps, 10_000)
	tb.Conform(10_000, 0)
	// One millisecond refills 1000 bytes of tokens.
	if !tb.Conform(999, time.Millisecond) {
		t.Fatal("refilled bucket must admit")
	}
	// Time going backwards must not mint tokens.
	if tb.Conform(2, 0) {
		t.Error("tokens minted on clock regression")
	}
}

// pipe builds source -> marker -> policer -> link -> sink.
type pipe struct {
	sim     *dsim.Sim
	marker  *EdgeMarker
	policer *Policer
	link    *Link
	sink    *Sink
}

func buildPipe(t *testing.T, linkRate units.Bandwidth, aggregate units.Bandwidth, excess sla.ExcessTreatment) *pipe {
	t.Helper()
	sim := dsim.New()
	sink := NewSink(sim)
	link := NewLink(sim, linkRate, time.Millisecond, 0, sink)
	pol := NewPolicer(sim, profile(aggregate), excess, link)
	marker := NewEdgeMarker(sim, pol)
	return &pipe{sim: sim, marker: marker, policer: pol, link: link, sink: sink}
}

func TestReservedFlowGetsPremiumService(t *testing.T) {
	p := buildPipe(t, 100*units.Mbps, 50*units.Mbps, sla.Drop)
	p.marker.InstallReservation("alice", profile(10*units.Mbps))
	src := NewSource(p.sim, "alice", 10*units.Mbps, 1250, BestEffort, p.marker)
	if err := src.Install(0, time.Second); err != nil {
		t.Fatal(err)
	}
	p.sim.Run(2 * time.Second)
	st := p.sink.Stats("alice")
	if st == nil {
		t.Fatal("no packets received")
	}
	if st.RxBytesByCls[Premium] == 0 {
		t.Fatal("reserved flow not marked premium")
	}
	if st.RxBytesByCls[BestEffort] > st.RxBytesByCls[Premium]/10 {
		t.Errorf("excessive best-effort leakage: %v", st.RxBytesByCls)
	}
	gp := st.Goodput(0, time.Second)
	if gp < 9e6 || gp > 11e6 {
		t.Errorf("goodput = %.2f Mb/s, want ~10", gp/1e6)
	}
}

func TestUnreservedFlowRemainsBestEffort(t *testing.T) {
	p := buildPipe(t, 100*units.Mbps, 50*units.Mbps, sla.Drop)
	src := NewSource(p.sim, "bob", 10*units.Mbps, 1250, Premium, p.marker) // tries to self-mark
	if err := src.Install(0, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	p.sim.Run(time.Second)
	st := p.sink.Stats("bob")
	if st == nil {
		t.Fatal("no packets received")
	}
	if st.RxBytesByCls[Premium] != 0 {
		t.Error("self-marked packets kept premium class through the edge")
	}
}

func TestMarkerRemarksOutOfProfile(t *testing.T) {
	p := buildPipe(t, 100*units.Mbps, 50*units.Mbps, sla.Drop)
	p.marker.InstallReservation("alice", profile(5*units.Mbps))
	src := NewSource(p.sim, "alice", 10*units.Mbps, 1250, BestEffort, p.marker) // sends 2x profile
	if err := src.Install(0, time.Second); err != nil {
		t.Fatal(err)
	}
	p.sim.Run(2 * time.Second)
	st := p.sink.Stats("alice")
	prem := st.RxBytesByCls[Premium]
	be := st.RxBytesByCls[BestEffort]
	if p.marker.Drops.Remarked == 0 {
		t.Error("marker never remarked out-of-profile traffic")
	}
	ratio := float64(prem) / float64(prem+be)
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("premium share = %.2f, want ~0.5 (5 of 10 Mb/s in profile)", ratio)
	}
}

func TestPolicerDropsAggregateExcess(t *testing.T) {
	// Two reserved flows of 10 Mb/s each, but the ingress aggregate
	// admits only 10 Mb/s: the policer cannot tell them apart and
	// drops ~half of the combined premium traffic. This is the core
	// mechanism behind Figure 4.
	p := buildPipe(t, 100*units.Mbps, 10*units.Mbps, sla.Drop)
	p.marker.InstallReservation("alice", profile(10*units.Mbps))
	p.marker.InstallReservation("david", profile(10*units.Mbps))
	// Different packet sizes desynchronise the CBR phases so neither
	// flow systematically wins the shared token bucket.
	a := NewSource(p.sim, "alice", 10*units.Mbps, 1250, BestEffort, p.marker)
	d := NewSource(p.sim, "david", 10*units.Mbps, 1000, BestEffort, p.marker)
	if err := a.Install(0, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(0, time.Second); err != nil {
		t.Fatal(err)
	}
	p.sim.Run(2 * time.Second)
	if p.policer.Drops.Dropped == 0 {
		t.Fatal("policer never dropped despite 2x aggregate overload")
	}
	aliceGp := p.sink.Stats("alice").Goodput(0, time.Second)
	if aliceGp > 8e6 {
		t.Errorf("alice goodput = %.2f Mb/s; expected degradation below 8 Mb/s", aliceGp/1e6)
	}
}

func TestPolicerRemarkTreatment(t *testing.T) {
	p := buildPipe(t, 100*units.Mbps, 5*units.Mbps, sla.Remark)
	p.marker.InstallReservation("alice", profile(10*units.Mbps))
	src := NewSource(p.sim, "alice", 10*units.Mbps, 1250, BestEffort, p.marker)
	if err := src.Install(0, time.Second); err != nil {
		t.Fatal(err)
	}
	p.sim.Run(2 * time.Second)
	if p.policer.Drops.Remarked == 0 {
		t.Fatal("policer never remarked")
	}
	st := p.sink.Stats("alice")
	// Nothing is lost on an uncongested link; excess arrives best effort.
	if st.RxBytesByCls[BestEffort] == 0 {
		t.Error("no best-effort arrivals despite remark treatment")
	}
	gp := st.Goodput(0, time.Second)
	if gp < 9e6 {
		t.Errorf("goodput = %.2f Mb/s; remark must not lose traffic on idle link", gp/1e6)
	}
}

func TestPolicerShapeTreatment(t *testing.T) {
	p := buildPipe(t, 100*units.Mbps, 5*units.Mbps, sla.Shape)
	p.marker.InstallReservation("alice", profile(10*units.Mbps))
	src := NewSource(p.sim, "alice", 10*units.Mbps, 1250, BestEffort, p.marker)
	if err := src.Install(0, time.Second); err != nil {
		t.Fatal(err)
	}
	p.sim.Run(3 * time.Second)
	if p.policer.Drops.Shaped == 0 {
		t.Fatal("policer never shaped")
	}
	st := p.sink.Stats("alice")
	// Shaped premium traffic still arrives premium, at ~the shaped rate.
	if st.RxBytesByCls[BestEffort] != 0 {
		t.Error("shaping must not demote packets")
	}
}

func TestPriorityQueueProtectsPremiumUnderCongestion(t *testing.T) {
	// 10 Mb/s premium + 100 Mb/s best-effort into a 20 Mb/s link:
	// premium must see full goodput and low latency.
	sim := dsim.New()
	sink := NewSink(sim)
	link := NewLink(sim, 20*units.Mbps, time.Millisecond, 0, sink)
	marker := NewEdgeMarker(sim, link)
	marker.InstallReservation("alice", profile(10*units.Mbps))
	a := NewSource(sim, "alice", 10*units.Mbps, 1250, BestEffort, marker)
	b := NewSource(sim, "crowd", 100*units.Mbps, 1250, BestEffort, marker)
	if err := a.Install(0, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Install(0, time.Second); err != nil {
		t.Fatal(err)
	}
	sim.Run(2 * time.Second)
	alice := sink.Stats("alice")
	crowd := sink.Stats("crowd")
	if gp := alice.Goodput(0, time.Second); gp < 9e6 {
		t.Errorf("premium goodput = %.2f Mb/s under congestion, want ~10", gp/1e6)
	}
	// Leftover capacity is 10 Mb/s; the queued backlog (256 KB ≈ 2 Mb)
	// drains after the sources stop, so allow a small margin.
	if crowd != nil && crowd.Goodput(0, time.Second) > 13e6 {
		t.Errorf("best effort got %.2f Mb/s, exceeding leftover capacity", crowd.Goodput(0, time.Second)/1e6)
	}
	if link.Drops.Dropped == 0 {
		t.Error("overloaded link never dropped best effort")
	}
	if alice.MeanLatency() > 5*time.Millisecond {
		t.Errorf("premium latency = %v, want small", alice.MeanLatency())
	}
}

func TestLinkBufferOverflowDrops(t *testing.T) {
	sim := dsim.New()
	sink := NewSink(sim)
	link := NewLink(sim, 1*units.Mbps, 0, 5000, sink) // tiny buffer
	src := NewSource(sim, "burst", 100*units.Mbps, 1250, BestEffort, link)
	if err := src.Install(0, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Second)
	if link.Drops.Dropped == 0 {
		t.Error("tiny buffer never overflowed")
	}
}

func TestSinkLatencyAccounting(t *testing.T) {
	sim := dsim.New()
	sink := NewSink(sim)
	// 1250-byte packet at 10 Mb/s tx = 1 ms, plus 2 ms propagation.
	link := NewLink(sim, 10*units.Mbps, 2*time.Millisecond, 0, sink)
	src := NewSource(sim, "f", 1*units.Mbps, 1250, Premium, link)
	if err := src.Install(0, 50*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Second)
	st := sink.Stats("f")
	if st == nil || st.RxPackets == 0 {
		t.Fatal("no arrivals")
	}
	lat := st.MeanLatency()
	if lat < 3*time.Millisecond || lat > 4*time.Millisecond {
		t.Errorf("latency = %v, want ~3ms (1ms tx + 2ms prop)", lat)
	}
}

func TestFlowStatsNilSafety(t *testing.T) {
	var st *FlowStats
	if st.Goodput(0, time.Second) != 0 || st.MeanLatency() != 0 {
		t.Error("nil FlowStats must report zeros")
	}
}

func TestSourceStopsAtStopTime(t *testing.T) {
	sim := dsim.New()
	sink := NewSink(sim)
	src := NewSource(sim, "f", 8*units.Mbps, 1000, BestEffort, sink)
	if err := src.Install(0, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Second)
	// 8 Mb/s with 1000-byte packets = 1 packet per ms; 10 ms -> 10 pkts.
	if got := sink.Stats("f").RxPackets; got < 9 || got > 11 {
		t.Errorf("received = %d, want ~10", got)
	}
}
