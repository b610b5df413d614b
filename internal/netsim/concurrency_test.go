package netsim

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/dsim"
	"e2eqos/internal/sla"
	"e2eqos/internal/units"
)

// These tests pin the thread-safety contract the netsim data plane
// relies on: markers, policers and meters are hammered from many
// goroutines and must stay exact, not just race-free. Run them with
// -race (make verify does).

// TestTokenBucketConcurrentConformance checks the bucket stays a
// conserved quantity under contention: with virtual time frozen there
// is no refill, so across every goroutine exactly burst/size packets
// may conform — no more (lost updates would admit extra), no fewer.
func TestTokenBucketConcurrentConformance(t *testing.T) {
	const (
		size    = 100
		packets = 200
		burst   = 10_000 // admits exactly 100 packets of 100B
		workers = 8
	)
	tb := NewTokenBucket(8*units.Mbps, burst)
	var conformed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < packets; i++ {
				if tb.Conform(size, 0) {
					local++
				}
			}
			mu.Lock()
			conformed += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	if want := int64(burst / size); conformed != want {
		t.Fatalf("conformed %d packets across %d goroutines, want exactly %d", conformed, workers, want)
	}
	if tb.Conform(size, 0) {
		t.Fatal("bucket still admits after exhaustion")
	}
	// After one packet-time of refill the bucket admits again.
	refillTime := time.Duration(float64(size*8) / float64(8*units.Mbps) * float64(time.Second))
	if !tb.Conform(size, refillTime+time.Millisecond) {
		t.Fatalf("bucket did not refill after %v", refillTime)
	}
}

// TestTokenBucketConcurrentReaders checks TimeToConform can run
// alongside Conform without corrupting the meter.
func TestTokenBucketConcurrentReaders(t *testing.T) {
	tb := NewTokenBucket(units.Mbps, 5_000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now := time.Duration(0); ; now += time.Microsecond {
				select {
				case <-stop:
					return
				default:
				}
				tb.TimeToConform(1500, now)
			}
		}()
	}
	for i := 0; i < 2_000; i++ {
		tb.Conform(125, time.Duration(i)*time.Microsecond)
	}
	close(stop)
	wg.Wait()
}

// TestSourceStatsDuringRun reads sink statistics from reader
// goroutines while the simulation emits packets — the live telemetry
// path fleet tooling uses mid-run.
func TestSourceStatsDuringRun(t *testing.T) {
	const pkt = 1250
	sim := dsim.New()
	sink := NewSink(sim)
	marker := NewEdgeMarker(sim, sink)
	marker.InstallReservation("f1", sla.TrafficProfile{Rate: 4 * units.Mbps, BucketBytes: 30_000})
	src := NewSource(sim, "f1", 8*units.Mbps, pkt, BestEffort, marker)
	if err := src.Install(0, time.Second); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st := sink.Stats("f1"); st != nil {
					_ = st.RxBytes
				}
			}
		}()
	}
	sim.Run(2 * time.Second)
	close(stop)
	wg.Wait()
	// 8 Mb/s of 1250-byte packets for one second is 800 packets, all
	// delivered: nothing between the marker and the sink drops.
	st := sink.Stats("f1")
	if st == nil || st.RxPackets < 799 || st.RxPackets > 801 || st.RxBytes != st.RxPackets*pkt {
		t.Fatalf("sink saw %+v, want ~800 packets of %d bytes", st, pkt)
	}
	premium, demoted := st.RxBytesByCls[Premium], st.RxBytesByCls[BestEffort]
	if premium+demoted != st.RxBytes || demoted != marker.Drops.Remarked*pkt {
		t.Fatalf("marker passed %d premium + %d demoted bytes (%d remarked), want %d in all", premium, demoted, marker.Drops.Remarked, st.RxBytes)
	}
	// The 4 Mb/s profile with a 30 KB bucket marks at most 530 KB premium.
	if premium == 0 || premium > 530_000 {
		t.Fatalf("premium bytes %d, want within the profile's 530000", premium)
	}
}

// TestEdgeMarkerConcurrentControlAndData reconfigures reservations
// from control goroutines while data goroutines push packets through
// the marker for another flow; per-flow marking must stay exact.
func TestEdgeMarkerConcurrentControlAndData(t *testing.T) {
	sim := dsim.New()
	sink := NewSink(sim)
	marker := NewEdgeMarker(sim, sink)
	profile := sla.TrafficProfile{Rate: 8 * units.Mbps, BucketBytes: 10_000}
	marker.InstallReservation("steady", profile)
	var wg sync.WaitGroup
	// Control plane: churn an unrelated flow's reservation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			marker.InstallReservation("churny", profile)
			marker.RemoveReservation("churny")
		}
	}()
	// Data plane: the steady flow marks within its burst at t=0.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				marker.Receive(newPacket("steady", 100, BestEffort, 0))
			}
		}()
	}
	wg.Wait()
	// 4×50×100B = 20_000B offered at t=0 against a 10_000B burst:
	// exactly the burst may be marked premium, the rest demoted.
	st := sink.Stats("steady")
	if st.RxBytesByCls[Premium] != 10_000 || st.RxBytesByCls[BestEffort] != 10_000 || marker.Drops.Remarked != 100 {
		t.Fatalf("sink saw %v, %d remarked; want 10000 premium / 10000 best effort, 100 remarked", st.RxBytesByCls, marker.Drops.Remarked)
	}
	marker.Receive(newPacket("churny", 100, Premium, 0))
	if st := sink.Stats("churny"); st.RxBytesByCls[Premium] != 0 {
		t.Fatal("churny flow left installed")
	}
}

// TestPolicerDropVsRemarkBoundary pins the exact boundary packet: an
// aggregate with a one-packet bucket must pass the packet that lands
// on the burst and apply the excess treatment to the next one.
func TestPolicerDropVsRemarkBoundary(t *testing.T) {
	const pkt = 1250
	cases := []struct {
		name   string
		excess sla.ExcessTreatment
		// after offering burst+1 packets at t=0:
		wantDropped, wantRemarked int64
		want                      []Class // forwarded, in order
	}{
		{name: "drop", excess: sla.Drop, wantDropped: 1, want: []Class{Premium, Premium}},
		{name: "remark", excess: sla.Remark, wantRemarked: 1, want: []Class{Premium, Premium, BestEffort}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := dsim.New()
			var forwarded []Class
			next := ReceiverFunc(func(p *Packet) { forwarded = append(forwarded, p.Class) })
			po := NewPolicer(sim, sla.TrafficProfile{Rate: units.Mbps, BucketBytes: 2 * pkt}, tc.excess, next)
			for i := 0; i < 3; i++ {
				po.Receive(newPacket("f", pkt, Premium, 0))
			}
			if fmt.Sprint(forwarded) != fmt.Sprint(tc.want) {
				t.Fatalf("forwarded %v, want %v (the full bucket, then the boundary packet's treatment)", forwarded, tc.want)
			}
			if po.Drops.Dropped != tc.wantDropped || po.Drops.Remarked != tc.wantRemarked {
				t.Fatalf("drops %v, want dropped=%d remarked=%d", po.Drops, tc.wantDropped, tc.wantRemarked)
			}
		})
	}
}

// TestPolicerConcurrentReconfigure races SetAggregateRate against
// premium packets and checks the accounting stays exact: every offered
// packet is either forwarded or dropped, never both or neither.
func TestPolicerConcurrentReconfigure(t *testing.T) {
	sim := dsim.New()
	sink := NewSink(sim)
	po := NewPolicer(sim, sla.TrafficProfile{Rate: units.Mbps, BucketBytes: 10_000}, sla.Drop, sink)
	const (
		workers = 4
		rounds  = 200
		chunk   = 500
	)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			po.SetAggregateRate(units.Bandwidth(1+i)*units.Mbps, 10_000)
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				po.Receive(newPacket("f", chunk, Premium, 0))
			}
		}()
	}
	wg.Wait()
	var passed int64
	if st := sink.Stats("f"); st != nil {
		passed = st.RxPackets
	}
	if passed == 0 || passed+po.Drops.Dropped != workers*rounds {
		t.Fatalf("passed %d + dropped %d != offered %d", passed, po.Drops.Dropped, workers*rounds)
	}
}
