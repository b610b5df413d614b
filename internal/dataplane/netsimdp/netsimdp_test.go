package netsimdp

import (
	"sync"
	"testing"
	"time"

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

func TestMarkRespectsProfile(t *testing.T) {
	p := New()
	p.InstallProfile("alice", profile(8*units.Mbps, 10_000)) // 1 MB/s, 10 KB burst

	// First second: burst + 0 refill (meter primes at first use).
	if got := p.Mark("alice", 10_000, 0); got != 10_000 {
		t.Fatalf("burst mark = %d, want 10000", got)
	}
	// Offer 2 MB over the next second: only ~1 MB conforms.
	got := p.Mark("alice", 2_000_000, time.Second)
	if got < 999_000 || got > 1_001_000 {
		t.Fatalf("sustained mark = %d, want ~1e6", got)
	}
}

func TestMarkUnreservedFlowIsBestEffort(t *testing.T) {
	p := New()
	if got := p.Mark("mallory", 1_000_000, 0); got != 0 {
		t.Fatalf("unreserved flow marked %d premium bytes", got)
	}
}

func TestRemoveProfileStopsMarking(t *testing.T) {
	p := New()
	p.InstallProfile("alice", profile(8*units.Mbps, 10_000))
	p.RemoveProfile("alice")
	if got := p.Mark("alice", 10_000, 0); got != 0 {
		t.Fatalf("removed flow still marked %d bytes", got)
	}
}

func TestPoliceAgainstAggregate(t *testing.T) {
	p := New()
	// No aggregate set: everything is excess.
	if got := p.Police(5_000, 0); got != 0 {
		t.Fatalf("zero aggregate passed %d bytes", got)
	}
	p.SetAggregate(profile(8*units.Mbps, 10_000))
	if got := p.Police(10_000, time.Second); got != 10_000 {
		t.Fatalf("burst police = %d, want 10000", got)
	}
	got := p.Police(3_000_000, 2*time.Second)
	if got < 999_000 || got > 1_001_000 {
		t.Fatalf("sustained police = %d, want ~1e6", got)
	}
	cs := p.ClassStats()
	if cs.PremiumBytes != 10_000+got {
		t.Fatalf("premium passed = %d, want %d", cs.PremiumBytes, 10_000+got)
	}
	wantExcess := 5_000 + (3_000_000 - got)
	if cs.ExcessPremiumBytes != wantExcess {
		t.Fatalf("excess = %d, want %d", cs.ExcessPremiumBytes, wantExcess)
	}
}

func TestReinstallResetsMeter(t *testing.T) {
	p := New()
	p.InstallProfile("alice", profile(8*units.Mbps, 10_000))
	p.Mark("alice", 10_000, 0) // drain burst
	p.InstallProfile("alice", profile(8*units.Mbps, 10_000))
	if got := p.Mark("alice", 10_000, 0); got != 10_000 {
		t.Fatalf("reinstall did not reset meter: mark = %d", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	p := New()
	p.SetAggregate(profile(100*units.Mbps, 1_000_000))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			flow := string(rune('a' + g))
			for i := 0; i < 200; i++ {
				p.InstallProfile(flow, profile(units.Mbps, 10_000))
				p.Mark(flow, 1500, time.Duration(i)*time.Millisecond)
				p.Police(1500, time.Duration(i)*time.Millisecond)
				p.ClassStats()
				if i%50 == 49 {
					p.RemoveProfile(flow)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPlaneProgrammingAllocationFree: a broker programs its plane at
// every hop of every reserve and cancel, so in steady state doing so
// allocates nothing: re-installing a known flow's profile after its
// removal, and setting the aggregate, reset the meters in place.
func TestPlaneProgrammingAllocationFree(t *testing.T) {
	p := New()
	prof := profile(8*units.Mbps, 30_000)
	p.InstallProfile("alice", prof)
	p.SetAggregate(prof)
	if allocs := testing.AllocsPerRun(100, func() {
		p.RemoveProfile("alice")
		p.InstallProfile("alice", prof)
	}); allocs != 0 {
		t.Errorf("RemoveProfile + InstallProfile allocates %.1f objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.SetAggregate(prof) }); allocs != 0 {
		t.Errorf("SetAggregate allocates %.1f objects, want 0", allocs)
	}
}
