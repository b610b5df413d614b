package tunnel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
)

// lookup reports the bandwidth ep holds for a sub-flow.
func lookup(ep *Endpoint, subID string) (units.Bandwidth, bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	h, ok := ep.allocs[subID]
	return h.bw, ok
}

func newEndpoint(t *testing.T, aggregate units.Bandwidth) *Endpoint {
	t.Helper()
	ep, err := NewEndpoint("RAR-1", aggregate,
		units.NewWindow(time.Now(), time.Hour),
		identity.NewDN("Grid", "C", "bb"), identity.NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func TestNewEndpointValidation(t *testing.T) {
	w := units.NewWindow(time.Now(), time.Hour)
	if _, err := NewEndpoint("", 10, w, "/CN=x", "/CN=y"); err == nil {
		t.Error("empty RAR id accepted")
	}
	if _, err := NewEndpoint("r", 0, w, "/CN=x", "/CN=y"); err == nil {
		t.Error("zero aggregate accepted")
	}
	if _, err := NewEndpoint("r", 10, units.Window{}, "/CN=x", "/CN=y"); err == nil {
		t.Error("invalid window accepted")
	}
}

func TestAllocateReleaseAccounting(t *testing.T) {
	ep := newEndpoint(t, 50*units.Mbps)
	for i, id := range []string{"a", "b", "c", "d", "e"} {
		if _, err := ep.Allocate(id, 10*units.Mbps); err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
	}
	if ep.Used() != ep.Aggregate {
		t.Errorf("used=%v of %v", ep.Used(), ep.Aggregate)
	}
	if _, err := ep.Allocate("overflow", units.Mbps); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	if bw, _, err := ep.Release("c"); err != nil || bw != 10*units.Mbps {
		t.Fatalf("release: bw=%v err=%v", bw, err)
	}
	if _, err := ep.Allocate("refill", 10*units.Mbps); err != nil {
		t.Fatalf("allocation after release: %v", err)
	}
	if _, _, err := ep.Release("ghost"); err == nil {
		t.Fatal("release of unknown sub-flow succeeded")
	}
	if _, err := ep.Allocate("a", units.Mbps); err == nil {
		t.Fatal("duplicate sub-flow id accepted")
	}
	if _, err := ep.Allocate("", units.Mbps); err == nil {
		t.Fatal("empty sub-flow id accepted")
	}
	if _, err := ep.Allocate("neg", -1); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	subs := ep.SubFlows()
	if len(subs) != 5 || ep.Len() != 5 {
		t.Errorf("subflows = %v len = %d", subs, ep.Len())
	}
	if bw, ok := lookup(ep, "a"); !ok || bw != 10*units.Mbps {
		t.Errorf("lookup a = %v %t", bw, ok)
	}
}

func TestGenerationsAreStrictlyIncreasing(t *testing.T) {
	ep := newEndpoint(t, 100*units.Mbps)
	g1, err := ep.Allocate("a", units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	_, g2, err := ep.Release("a")
	if err != nil {
		t.Fatal(err)
	}
	g3, err := ep.Allocate("a", 2*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if !(g1 < g2 && g2 < g3) {
		t.Errorf("generations not increasing: %d %d %d", g1, g2, g3)
	}
	if ep.Snapshot().Gen != g3 {
		t.Errorf("Gen() = %d, want %d", ep.Snapshot().Gen, g3)
	}
}

func TestConcurrentAllocationsNeverOversubscribe(t *testing.T) {
	ep := newEndpoint(t, 100*units.Mbps)
	var wg sync.WaitGroup
	granted := make(chan struct{}, 200)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := ep.Allocate(string(rune('a'+i%26))+string(rune('0'+i/26)), units.Mbps); err == nil {
				granted <- struct{}{}
			}
		}(i)
	}
	wg.Wait()
	close(granted)
	n := 0
	for range granted {
		n++
	}
	if n != 100 {
		t.Errorf("granted %d 1Mb/s sub-flows into 100Mb/s tunnel, want 100", n)
	}
	if ep.Used() != 100*units.Mbps {
		t.Errorf("used = %v", ep.Used())
	}
}

// TestBatchAllocationFree: on an endpoint holding 8192 flows, an alloc
// batch and a release batch of 256 ids the caller already holds
// allocate nothing — the batch's closure stays on the caller's stack.
// The ids here are strings the caller owns, as the source's are; the
// destination copies its ids into one Keys before the batch, and
// TestKeysAllocationBound holds that to two objects.
func TestBatchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	ep := newEndpoint(t, 100*units.Gbps)
	for i := 0; i < 8192; i++ {
		if _, err := ep.Allocate(fmt.Sprintf("standing-%d", i), units.Kbps); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, 256)
	for i := range ids {
		ids[i] = fmt.Sprintf("batch-%d", i)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		ep.Batch(func(tx Tx) {
			for _, id := range ids {
				if _, e := tx.Allocate(id, units.Kbps); e != nil && err == nil {
					err = e
				}
			}
		})
		ep.Batch(func(tx Tx) {
			for _, id := range ids {
				if _, _, e := tx.Release(id); e != nil && err == nil {
					err = e
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an alloc and a release batch of 256 allocate %.0f objects, want 0", allocs)
	}
	if ep.Len() != 8192 {
		t.Errorf("%d flows left, want the 8192 standing ones", ep.Len())
	}
}

// TestKeysAllocationBound: copying 256 ids into a Keys makes two
// objects, the Keys and its text, and an alloc batch that takes every id
// of it and the release batch after it allocate nothing, on an endpoint
// holding 8192 flows.
func TestKeysAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	ep := newEndpoint(t, 100*units.Gbps)
	for i := 0; i < 8192; i++ {
		if _, err := ep.Allocate(fmt.Sprintf("standing-%d", i), units.Kbps); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, 256)
	for i := range ids {
		ids[i] = fmt.Sprintf("batch-%d", i)
	}
	newKeys := func() *Keys { return NewKeys(len(ids), func(i int) (string, bool) { return ids[i], true }) }
	if allocs := testing.AllocsPerRun(100, func() { newKeys() }); allocs != 2 {
		t.Errorf("a Keys of 256 ids costs %.0f objects, want 2", allocs)
	}
	const runs = 100
	keys := make([]*Keys, runs+1) // AllocsPerRun's warm-up call takes one too
	for i := range keys {
		keys[i] = newKeys()
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		k := keys[next]
		next++
		var err error
		ep.Batch(func(tx Tx) {
			for range ids {
				if _, e := tx.AllocateNext(k, units.Kbps); e != nil && err == nil {
					err = e
				}
			}
		})
		ep.Batch(func(tx Tx) {
			for _, id := range ids {
				if _, _, e := tx.Release(id); e != nil && err == nil {
					err = e
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an alloc batch taking 256 ids from a Keys and its release batch allocate %.0f objects, want 0", allocs)
	}
	if ep.Len() != 8192 {
		t.Errorf("%d flows left, want the 8192 standing ones", ep.Len())
	}
}

// TestRestoreAllocationBound: decoding an endpoint snapshot and
// restoring it allocates per endpoint, not per sub-flow — the ids are
// cut from one copy of the snapshot, then copied into one Keys — so 256
// sub-flows cost no more objects than 64.
func TestRestoreAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	cost := func(n int) float64 {
		ep := newEndpoint(t, 100*units.Gbps)
		for i := 0; i < n; i++ {
			if _, err := ep.Allocate(fmt.Sprintf("subflow-%06d", i), units.Kbps); err != nil {
				t.Fatal(err)
			}
		}
		data := ep.Snapshot().AppendBinary(nil)
		return testing.AllocsPerRun(50, func() {
			var s EndpointSnapshot
			if err := s.DecodeBinary(data); err != nil {
				t.Fatal(err)
			}
			if r, err := Restore(s); err != nil || r.Len() != n {
				t.Fatalf("restore of %d sub-flows: %v", n, err)
			}
		})
	}
	if small, large := cost(64), cost(256); large > small {
		t.Errorf("decoding and restoring 256 sub-flows costs %.0f objects, 64 cost %.0f; want no growth with the count", large, small)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	ep := newEndpoint(t, 100*units.Mbps)
	ep.Epoch = 7
	for _, id := range []string{"zeta", "alpha", "mid"} {
		if _, err := ep.Allocate(id, 5*units.Mbps); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ep.Release("mid"); err != nil {
		t.Fatal(err)
	}
	snap := ep.Snapshot()
	if len(snap.SubFlows) != 2 || snap.SubFlows[0].ID != "alpha" || snap.SubFlows[1].ID != "zeta" {
		t.Fatalf("snapshot sub-flows not sorted: %+v", snap.SubFlows)
	}
	restored, err := Restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Used() != ep.Used() || restored.Len() != ep.Len() ||
		restored.Snapshot().Gen != ep.Snapshot().Gen || restored.Epoch != ep.Epoch {
		t.Errorf("restored endpoint differs: used=%v len=%d gen=%d epoch=%d",
			restored.Used(), restored.Len(), restored.Snapshot().Gen, restored.Epoch)
	}
	a, _ := json.Marshal(snap)
	b, _ := json.Marshal(restored.Snapshot())
	if !bytes.Equal(a, b) {
		t.Errorf("snapshot not byte-identical after restore:\n a: %s\n b: %s", a, b)
	}
}

func TestRestoreRejectsOvercommit(t *testing.T) {
	snap := EndpointSnapshot{
		RARID:     "RAR-over",
		Aggregate: units.Mbps,
		Window:    units.NewWindow(time.Now(), time.Hour),
		SubFlows:  []SubFlow{{ID: "a", Bandwidth: units.Mbps}, {ID: "b", Bandwidth: units.Mbps}},
	}
	if _, err := Restore(snap); err == nil {
		t.Fatal("overcommitted snapshot accepted")
	}
	snap.SubFlows = []SubFlow{{ID: "", Bandwidth: units.Mbps}}
	if _, err := Restore(snap); err == nil {
		t.Fatal("empty sub-flow id accepted")
	}
	snap.SubFlows = []SubFlow{{ID: "a", Bandwidth: units.Mbps}, {ID: "a", Bandwidth: units.Mbps}}
	if _, err := Restore(snap); err == nil {
		t.Fatal("duplicate sub-flow accepted")
	}
}

func TestReplayIsIdempotentAndOrdered(t *testing.T) {
	ep := newEndpoint(t, 100*units.Mbps)
	replayAlloc := func(id string, bw units.Bandwidth, gen int64) {
		t.Helper()
		k := NewKeys(1, func(int) (string, bool) { return id, true })
		var err error
		ep.Batch(func(tx Tx) { err = tx.ReplayAlloc(k, bw, gen) })
		if err != nil {
			t.Fatal(err)
		}
	}
	replayRelease := func(id string, gen int64) { ep.Batch(func(tx Tx) { tx.ReplayRelease(id, gen) }) }
	// gen 1: alloc a@10; gen 2: release a; gen 3: alloc a@20.
	replayAlloc("a", 10*units.Mbps, 1)
	replayRelease("a", 2)
	replayAlloc("a", 20*units.Mbps, 3)
	if bw, ok := lookup(ep, "a"); !ok || bw != 20*units.Mbps {
		t.Fatalf("after replay: a = %v %t", bw, ok)
	}
	// Stale records (gen already reflected) are no-ops.
	replayRelease("a", 2)
	replayAlloc("a", 10*units.Mbps, 1)
	if bw, _ := lookup(ep, "a"); bw != 20*units.Mbps || ep.Used() != 20*units.Mbps {
		t.Fatalf("stale replay mutated state: %v used=%v", bw, ep.Used())
	}
	if ep.Snapshot().Gen != 3 {
		t.Errorf("gen = %d, want 3", ep.Snapshot().Gen)
	}
}
