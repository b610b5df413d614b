package tunnel

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
)

// TestEndpointInvariantsUnderConcurrentChurn is the property test for
// the endpoint, meant to run under -race: many goroutines
// hammer Allocate/Release over a shared sub-flow id space, and the two
// invariants are checked continuously (Used() never exceeds Aggregate,
// even mid-mutation) and at every quiescent point between waves
// (Used() equals the sum over the live sub-flow set, and the local
// accounting of every worker agrees with the endpoint).
func TestEndpointInvariantsUnderConcurrentChurn(t *testing.T) {
	const (
		workers  = 8
		waves    = 6
		opsPerWv = 400
		idSpace  = 64
	)
	aggregate := 80 * units.Mbps
	ep, err := NewEndpoint("RAR-prop", aggregate,
		units.NewWindow(time.Now(), time.Hour),
		identity.NewDN("Grid", "C", "bb"), identity.NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}

	// A watcher polls the aggregate bound *during* churn: admission must
	// hold it at every instant, not only at barriers.
	stop := make(chan struct{})
	var violations atomic.Int64
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ep.Used() > aggregate {
				violations.Add(1)
			}
		}
	}()

	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(wave*workers + wkr)))
				for op := 0; op < opsPerWv; op++ {
					id := fmt.Sprintf("sub-%d", rng.Intn(idSpace))
					if rng.Intn(2) == 0 {
						bw := units.Bandwidth(rng.Intn(5)+1) * units.Mbps
						_, _ = ep.Allocate(id, bw)
					} else {
						_, _, _ = ep.Release(id)
					}
				}
			}(wkr)
		}
		wg.Wait()

		// Quiescent point: no mutation in flight, so the running counter
		// must agree exactly with the live allocation set.
		var sum units.Bandwidth
		ids := ep.SubFlows()
		for _, id := range ids {
			bw, ok := lookup(ep, id)
			if !ok {
				t.Fatalf("wave %d: SubFlows lists %q but Lookup misses it", wave, id)
			}
			sum += bw
		}
		if got := ep.Used(); got != sum {
			t.Fatalf("wave %d: Used() = %v but live sub-flows sum to %v", wave, got, sum)
		}
		if got := ep.Len(); got != len(ids) {
			t.Fatalf("wave %d: Len() = %d but SubFlows has %d entries", wave, got, len(ids))
		}
		if ep.Used() > aggregate {
			t.Fatalf("wave %d: Used() %v exceeds aggregate %v", wave, ep.Used(), aggregate)
		}
		// The snapshot taken under the endpoint's lock must agree too.
		snap := ep.Snapshot()
		var snapSum units.Bandwidth
		for _, sf := range snap.SubFlows {
			snapSum += sf.Bandwidth
		}
		if snapSum != sum {
			t.Fatalf("wave %d: snapshot sums to %v, live state to %v", wave, snapSum, sum)
		}
	}
	close(stop)
	watcher.Wait()
	if n := violations.Load(); n > 0 {
		t.Fatalf("aggregate bound violated %d times during churn", n)
	}
}

// TestBatchIsAtomic: several goroutines apply disjoint 256-op
// alloc-then-release batches while a watcher polls Snapshot and Used.
// Every snapshot holds all or none of each batch's ids, Used() holds
// whole batches, equals the snapshot's sum whenever no op ran between
// the two reads (the generation did not move) and never exceeds the
// aggregate. Meant for -race -count=10.
func TestBatchIsAtomic(t *testing.T) {
	const (
		workers = 4
		size    = 256
		rounds  = 100
	)
	aggregate := workers * size * units.Kbps
	ep, err := NewEndpoint("RAR-atomic", aggregate,
		units.NewWindow(time.Now(), time.Hour),
		identity.NewDN("Grid", "C", "bb"), identity.NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([][]string, workers)
	owner := make(map[string]int)
	for w := range ids {
		for i := 0; i < size; i++ {
			id := fmt.Sprintf("w%d-%03d", w, i)
			ids[w] = append(ids[w], id)
			owner[id] = w
		}
	}
	check := func() {
		snap := ep.Snapshot()
		used := ep.Used()
		quiet := ep.Snapshot().Gen == snap.Gen
		held := make([]int, workers)
		var sum units.Bandwidth
		for _, sf := range snap.SubFlows {
			held[owner[sf.ID]]++
			sum += sf.Bandwidth
		}
		for w, n := range held {
			if n != 0 && n != size {
				t.Errorf("snapshot at gen %d holds %d of worker %d's %d ids", snap.Gen, n, w, size)
			}
		}
		if used%(size*units.Kbps) != 0 || used > aggregate {
			t.Errorf("Used() = %v: not whole batches, or above the aggregate %v", used, aggregate)
		}
		if quiet && used != sum {
			t.Errorf("Used() = %v but the snapshot of the same generation %d sums to %v", used, snap.Gen, sum)
		}
	}

	stop := make(chan struct{})
	var watcher sync.WaitGroup
	watcher.Add(1)
	go func() {
		defer watcher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if check(); t.Failed() {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(mine []string) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var err error
				ep.Batch(func(tx Tx) {
					for _, id := range mine {
						if _, e := tx.Allocate(id, units.Kbps); e != nil && err == nil {
							err = e
						}
					}
				})
				ep.Batch(func(tx Tx) {
					for _, id := range mine {
						if _, _, e := tx.Release(id); e != nil && err == nil {
							err = e
						}
					}
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(ids[w])
	}
	wg.Wait()
	close(stop)
	watcher.Wait()
	check()
	if ep.Len() != 0 || ep.Used() != 0 || ep.Snapshot().Gen != workers*rounds*2*size {
		t.Errorf("after churn: len %d used %v gen %d", ep.Len(), ep.Used(), ep.Snapshot().Gen)
	}
}

// TestConcurrentSnapshotIsConsistent interleaves Snapshot with churn:
// every snapshot must be internally consistent (sum of sub-flows never
// above the aggregate, sorted ids, no duplicates) even while both
// invariant halves are mid-flight on other goroutines.
func TestConcurrentSnapshotIsConsistent(t *testing.T) {
	aggregate := 40 * units.Mbps
	ep, err := NewEndpoint("RAR-snap", aggregate,
		units.NewWindow(time.Now(), time.Hour),
		identity.NewDN("Grid", "C", "bb"), identity.NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wkr := 0; wkr < 4; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(wkr)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("s-%d", rng.Intn(32))
				if rng.Intn(2) == 0 {
					_, _ = ep.Allocate(id, units.Mbps)
				} else {
					_, _, _ = ep.Release(id)
				}
			}
		}(wkr)
	}
	for i := 0; i < 200; i++ {
		snap := ep.Snapshot()
		var sum units.Bandwidth
		for j, sf := range snap.SubFlows {
			sum += sf.Bandwidth
			if j > 0 && snap.SubFlows[j-1].ID >= sf.ID {
				t.Fatalf("snapshot %d not strictly sorted: %q then %q", i, snap.SubFlows[j-1].ID, sf.ID)
			}
		}
		if sum > aggregate {
			t.Fatalf("snapshot %d sums to %v, above aggregate %v", i, sum, aggregate)
		}
		if _, err := Restore(snap); err != nil {
			t.Fatalf("snapshot %d does not restore: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
