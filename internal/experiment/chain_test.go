package experiment

import (
	"fmt"
	"runtime"
	"testing"

	"e2eqos/internal/units"
)

// chainUser builds a linear world of n domains and a user in its first.
func chainUser(t *testing.T, n int, cfg WorldConfig) (*World, *User) {
	t.Helper()
	cfg.NumDomains = n
	w, err := BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	return w, u
}

// reserveAndCancel reserves 1 Mb/s end to end and cancels it.
func reserveAndCancel(w *World, u *User) error {
	spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil {
		return err
	}
	if !res.Granted {
		return fmt.Errorf("reserve %s denied: %s", spec.RARID, res.Reason)
	}
	return u.Cancel(u.Domain, spec.RARID)
}

// TestReserveVerifiesEachLayerOnce pins what a reserve checks: hop k
// re-opens all k layers of the onion, so a grant across N domains
// verifies N(N+1)/2 layer signatures — 6, 15 and 36 at N = 3, 5 and 8
// — as the brokers' bb_layer_signatures_verified_total counts them
// where each check runs.
func TestReserveVerifiesEachLayerOnce(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		w, u := chainUser(t, n, WorldConfig{EnableObs: true})
		if err := reserveAndCancel(w, u); err != nil {
			t.Fatalf("%d domains: %v", n, err)
		}
		if got, want := w.CounterTotal("bb_layer_signatures_verified_total"), float64(n*(n+1)/2); got != want {
			t.Errorf("%d domains: a reserve verified %.0f layer signatures, want %.0f", n, got, want)
		}
	}
}

// TestReserveChainAllocationBound: one reserve and its cancel across
// eight domains, on the in-memory transport with warm connections and
// certificate caches, allocate at most 470 objects in the whole
// process. Verifying the onion allocates per request, not per layer
// (DESIGN.md §6.11), so the 36 layer checks add nothing: 371 were
// measured, 570 when each layer cost two structs, each check run its
// closures and each decision its reason.
func TestReserveChainAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w, u := chainUser(t, 8, WorldConfig{})
	cycle := func() {
		if err := reserveAndCancel(w, u); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	t.Logf("8-domain reserve + cancel: %.1f objects", allocs)
	if allocs > 470 {
		t.Errorf("8-domain reserve + cancel allocates %.1f objects, want at most 470", allocs)
	}
}
