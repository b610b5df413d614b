package fake

import (
	"sync"
	"testing"
	"time"

	"e2eqos/internal/sla"
	"e2eqos/internal/units"
)

func profile(rate units.Bandwidth, burst int64) sla.TrafficProfile {
	return sla.TrafficProfile{Rate: rate, BucketBytes: burst}
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
