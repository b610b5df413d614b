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

func buildPipe(t *testing.T, linkRate units.Bandwidth, aggregate units.Bandwidth) *pipe {
	t.Helper()
	sim := dsim.New()
	sink := NewSink(sim)
	link := NewLink(sim, linkRate, sink)
	pol := NewPolicer(sim, profile(aggregate), link)
	marker := NewEdgeMarker(sim, pol)
	return &pipe{sim: sim, marker: marker, policer: pol, link: link, sink: sink}
}

func TestReservedFlowGetsPremiumService(t *testing.T) {
	p := buildPipe(t, 100*units.Mbps, 50*units.Mbps)
	p.marker.InstallReservation("alice", profile(10*units.Mbps))
	src := NewSource(p.sim, "alice", 10*units.Mbps, 1250, p.marker)
	if err := src.Install(time.Second); err != nil {
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
	gp := st.Goodput(time.Second)
	if gp < 9e6 || gp > 11e6 {
		t.Errorf("goodput = %.2f Mb/s, want ~10", gp/1e6)
	}
}

func TestUnreservedFlowRemainsBestEffort(t *testing.T) {
	p := buildPipe(t, 100*units.Mbps, 50*units.Mbps)
	for i := 0; i < 10; i++ {
		p.marker.Receive(newPacket("bob", 1250, Premium, 0)) // tries to self-mark
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
	p := buildPipe(t, 100*units.Mbps, 50*units.Mbps)
	p.marker.InstallReservation("alice", profile(5*units.Mbps))
	src := NewSource(p.sim, "alice", 10*units.Mbps, 1250, p.marker) // sends 2x profile
	if err := src.Install(time.Second); err != nil {
		t.Fatal(err)
	}
	p.sim.Run(2 * time.Second)
	st := p.sink.Stats("alice")
	prem := st.RxBytesByCls[Premium]
	be := st.RxBytesByCls[BestEffort]
	if be == 0 {
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
	p := buildPipe(t, 100*units.Mbps, 10*units.Mbps)
	p.marker.InstallReservation("alice", profile(10*units.Mbps))
	p.marker.InstallReservation("david", profile(10*units.Mbps))
	// Different packet sizes desynchronise the CBR phases so neither
	// flow systematically wins the shared token bucket.
	a := NewSource(p.sim, "alice", 10*units.Mbps, 1250, p.marker)
	d := NewSource(p.sim, "david", 10*units.Mbps, 1000, p.marker)
	if err := a.Install(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.Install(time.Second); err != nil {
		t.Fatal(err)
	}
	p.sim.Run(2 * time.Second)
	if p.policer.Dropped == 0 {
		t.Fatal("policer never dropped despite 2x aggregate overload")
	}
	aliceGp := p.sink.Stats("alice").Goodput(time.Second)
	if aliceGp > 8e6 {
		t.Errorf("alice goodput = %.2f Mb/s; expected degradation below 8 Mb/s", aliceGp/1e6)
	}
}

func TestPriorityQueueProtectsPremiumUnderCongestion(t *testing.T) {
	// 10 Mb/s premium + 100 Mb/s best-effort into a 20 Mb/s link:
	// premium must see full goodput and low latency.
	sim := dsim.New()
	sink := NewSink(sim)
	link := NewLink(sim, 20*units.Mbps, sink)
	marker := NewEdgeMarker(sim, link)
	marker.InstallReservation("alice", profile(10*units.Mbps))
	a := NewSource(sim, "alice", 10*units.Mbps, 1250, marker)
	b := NewSource(sim, "crowd", 100*units.Mbps, 1250, marker)
	if err := a.Install(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.Install(time.Second); err != nil {
		t.Fatal(err)
	}
	sim.Run(2 * time.Second)
	alice := sink.Stats("alice")
	crowd := sink.Stats("crowd")
	if gp := alice.Goodput(time.Second); gp < 9e6 {
		t.Errorf("premium goodput = %.2f Mb/s under congestion, want ~10", gp/1e6)
	}
	// Leftover capacity is 10 Mb/s; the queued backlog (256 KB ≈ 2 Mb)
	// drains after the sources stop, so allow a small margin.
	if crowd != nil && crowd.Goodput(time.Second) > 13e6 {
		t.Errorf("best effort got %.2f Mb/s, exceeding leftover capacity", crowd.Goodput(time.Second)/1e6)
	}
	if alice.MeanLatency() > 5*time.Millisecond {
		t.Errorf("premium latency = %v, want small", alice.MeanLatency())
	}
	// Drained, every packet the link kept has reached the sink. The
	// crowd offered 100 Mb/s for a second, 10 000 packets, and a 256 KB
	// buffer holds about 200.
	sim.Run(0)
	if crowd = sink.Stats("crowd"); crowd == nil || crowd.RxPackets >= 9_000 {
		t.Errorf("sink saw %+v: the overloaded link never dropped best effort", crowd)
	}
}

func TestLinkBufferOverflowDrops(t *testing.T) {
	sim := dsim.New()
	sink := NewSink(sim)
	link := NewLink(sim, 1*units.Mbps, sink)
	src := NewSource(sim, "burst", 100*units.Mbps, 1250, link)
	if err := src.Install(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sim.Run(0)
	// 100 ms at 100 Mb/s offers 1000 packets. Drained, a link that
	// dropped none would have delivered them all; during the burst a
	// 1 Mb/s link carries 10 and the 256 KB buffer holds about 200.
	if st := sink.Stats("burst"); st == nil || st.RxPackets >= 500 {
		t.Errorf("sink saw %+v: the buffer never overflowed", st)
	}
}

func TestSinkLatencyAccounting(t *testing.T) {
	sim := dsim.New()
	sink := NewSink(sim)
	// 1250-byte packet at 10 Mb/s tx = 1 ms, plus 1 ms propagation.
	link := NewLink(sim, 10*units.Mbps, sink)
	src := NewSource(sim, "f", 1*units.Mbps, 1250, link)
	if err := src.Install(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Second)
	st := sink.Stats("f")
	if st == nil || st.RxPackets == 0 {
		t.Fatal("no arrivals")
	}
	lat := st.MeanLatency()
	if lat < 2*time.Millisecond || lat > 3*time.Millisecond {
		t.Errorf("latency = %v, want ~2ms (1ms tx + 1ms prop)", lat)
	}
}

func TestFlowStatsNilSafety(t *testing.T) {
	var st *FlowStats
	if st.Goodput(time.Second) != 0 || st.MeanLatency() != 0 {
		t.Error("nil FlowStats must report zeros")
	}
}

func TestSourceStopsAtStopTime(t *testing.T) {
	sim := dsim.New()
	sink := NewSink(sim)
	src := NewSource(sim, "f", 8*units.Mbps, 1000, sink)
	if err := src.Install(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sim.Run(time.Second)
	// 8 Mb/s with 1000-byte packets = 1 packet per ms; 10 ms -> 10 pkts.
	if got := sink.Stats("f").RxPackets; got < 9 || got > 11 {
		t.Errorf("received = %d, want ~10", got)
	}
}
