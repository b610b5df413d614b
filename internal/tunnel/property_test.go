package tunnel

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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

// TestKeysStayBoundedUnderRandomBatches drives one endpoint with random
// batches — allocations cut from a Keys (some denied: duplicates and
// overcommits), allocations of the caller's own strings, releases of
// random subsets in random order (some unknown), replayed records with
// ops already reflected, and Restore from its own snapshot — and after
// every step checks it against a plain map: the snapshot holds the
// model's sub-flows, every Keys counts exactly the keys cut from it and
// pins no more than 4 times their bytes, and no key that is not
// counted against a Keys points into one (a re-keyed survivor is a copy
// of its own).
func TestKeysStayBoundedUnderRandomBatches(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { keysProperty(t, seed) })
	}
}

func keysProperty(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	aggregate := 600 * units.Mbps
	ep, err := NewEndpoint("RAR-keys", aggregate, units.NewWindow(time.Now(), time.Hour),
		identity.NewDN("Grid", "C", "bb"), identity.NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string]units.Bandwidth)
	var used units.Bandwidth
	var gen int64
	fresh := 0
	// pick returns an id: mostly a fresh one, of a random length, else a
	// live one (an alloc of it is a duplicate) or one never allocated.
	pick := func() string {
		switch r := rng.Intn(20); {
		case r == 0 && len(model) > 0:
			for id := range model {
				return id
			}
		case r == 1:
			return fmt.Sprintf("never-%d", rng.Intn(1000))
		}
		fresh++
		return fmt.Sprintf("sf-%d-%s", fresh, strings.Repeat("x", rng.Intn(40)))
	}
	liveIDs := func() []string {
		ids := make([]string, 0, len(model))
		for id := range model {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		return ids
	}
	// admit applies one allocation to the model and reports whether the
	// endpoint must grant it.
	admit := func(id string, bw units.Bandwidth) bool {
		if _, dup := model[id]; dup || bw > aggregate-used {
			return false
		}
		model[id] = bw
		used += bw
		return true
	}
	release := func(id string) bool {
		bw, ok := model[id]
		if ok {
			delete(model, id)
			used -= bw
		}
		return ok
	}
	// seen holds every Keys the endpoint has cut a key from, retired the
	// texts of those a Restore left behind.
	seen := make(map[*Keys]bool)
	var retired []string

	for step := 0; step < 300; step++ {
		switch what := rng.Intn(10); {
		case what < 4: // an alloc batch cut from one Keys
			ids := make([]string, 1+rng.Intn(300))
			for i := range ids {
				ids[i] = pick()
			}
			k := NewKeys(len(ids), func(i int) (string, bool) { return ids[i], true })
			ep.Batch(func(tx Tx) {
				for _, id := range ids {
					bw := units.Bandwidth(1+rng.Intn(3000)) * units.Kbps
					want := admit(id, bw)
					g, err := tx.AllocateNext(k, bw)
					if want != (err == nil) {
						t.Fatalf("step %d: alloc %q: %v, model says granted=%t", step, id, err, want)
					}
					if want {
						if gen++; g != gen {
							t.Fatalf("step %d: alloc %q at gen %d, want %d", step, id, g, gen)
						}
					}
				}
			})
		case what < 5: // an alloc batch of the caller's own strings
			ep.Batch(func(tx Tx) {
				for n := 1 + rng.Intn(20); n > 0; n-- {
					id, bw := strings.Clone(pick()), units.Bandwidth(1+rng.Intn(3000))*units.Kbps
					want := admit(id, bw)
					if _, err := tx.Allocate(id, bw); want != (err == nil) {
						t.Fatalf("step %d: alloc %q: %v, model says granted=%t", step, id, err, want)
					}
					if want {
						gen++
					}
				}
			})
		case what < 8: // releases of a random share of the live set
			ids := liveIDs()
			ids = ids[:rng.Intn(len(ids)+1)]
			for n := rng.Intn(3); n > 0; n-- {
				ids = append(ids, fmt.Sprintf("never-%d", rng.Intn(1000)))
			}
			ep.Batch(func(tx Tx) {
				for _, id := range ids {
					want := release(strings.Clone(id))
					if _, _, err := tx.Release(strings.Clone(id)); want != (err == nil) {
						t.Fatalf("step %d: release %q: %v, model says granted=%t", step, id, err, want)
					}
					if want {
						gen++
					}
				}
			})
		case what < 9: // a replayed record: some ops reflected already
			type op struct {
				alloc bool
				id    string
				bw    units.Bandwidth
				gen   int64
			}
			var ops []op
			g := gen - int64(rng.Intn(3)) // ops at or below gen are reflected
			live := liveIDs()
			for n := 1 + rng.Intn(60); n > 0; n-- {
				g++
				if rng.Intn(3) > 0 || len(live) == 0 {
					ops = append(ops, op{true, pick(), units.Bandwidth(1+rng.Intn(3000)) * units.Kbps, g})
				} else {
					ops = append(ops, op{false, live[0], 0, g})
					live = live[1:]
				}
			}
			k := NewKeys(len(ops), func(i int) (string, bool) { return ops[i].id, ops[i].alloc })
			ep.Batch(func(tx Tx) {
				for _, o := range ops {
					if !o.alloc {
						if o.gen > gen {
							release(o.id)
							gen = o.gen
						}
						tx.ReplayRelease(o.id, o.gen)
						continue
					}
					var want error
					if o.gen > gen {
						gen = o.gen
						if _, dup := model[o.id]; !dup && !admit(o.id, o.bw) {
							want = fmt.Errorf("overcommits")
						}
					}
					if err := tx.ReplayAlloc(k, o.bw, o.gen); (err == nil) != (want == nil) {
						t.Fatalf("step %d: replayed alloc %q at gen %d: %v, want %v", step, o.id, o.gen, err, want)
					}
				}
			})
		default: // Restore from the endpoint's own snapshot
			restored, err := Restore(ep.Snapshot())
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for k := range seen {
				retired = append(retired, k.text)
			}
			clear(seen)
			ep = restored
		}

		// The checks, under the endpoint's lock.
		snap := ep.Snapshot()
		if snap.Gen != gen || len(snap.SubFlows) != len(model) {
			t.Fatalf("step %d: snapshot at gen %d holds %d sub-flows, model at %d holds %d", step, snap.Gen, len(snap.SubFlows), gen, len(model))
		}
		for _, sf := range snap.SubFlows {
			if model[sf.ID] != sf.Bandwidth {
				t.Fatalf("step %d: snapshot holds %q at %v, model at %v", step, sf.ID, sf.Bandwidth, model[sf.ID])
			}
		}
		ep.mu.Lock()
		if len(ep.touched) != 0 {
			t.Fatalf("step %d: %d Keys left on the touched list after the batch", step, len(ep.touched))
		}
		counted := make(map[*Keys]int)
		for id, h := range ep.allocs {
			if h.keys != nil {
				seen[h.keys] = true
				counted[h.keys] += keySize(id)
				if !within(id, h.keys.text) {
					t.Fatalf("step %d: key %q is counted against a Keys it is not cut from", step, id)
				}
			}
		}
		spans := append([]string(nil), retired...)
		for k := range seen {
			spans = append(spans, k.text)
			if k.live != counted[k] {
				t.Fatalf("step %d: a Keys counts %d live bytes, its keys in the map take %d", step, k.live, counted[k])
			}
			if k.live > 0 && len(k.text) > 4*k.live {
				t.Fatalf("step %d: a Keys of %d bytes pins them for %d bytes of keys, more than 4×", step, len(k.text), k.live)
			}
		}
		for id, h := range ep.allocs {
			if h.keys != nil {
				continue
			}
			for _, text := range spans {
				if within(id, text) {
					t.Fatalf("step %d: uncounted key %q points into a Keys", step, id)
				}
			}
		}
		ep.mu.Unlock()
	}
}

// within reports whether s's bytes lie inside text's.
func within(s, text string) bool {
	if len(s) == 0 || len(text) == 0 {
		return false
	}
	at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
	return at >= lo && at < lo+uintptr(len(text))
}
