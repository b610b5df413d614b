package experiment

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"e2eqos/internal/identity"
	"e2eqos/internal/policy"
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

// TestReserveSignatureCheckAllocationBound pins the signatures a
// reserve and its cancel make and check across an N-domain chain, per
// broker, as each one's bb_signatures_made_total and
// bb_layer_signatures_verified_total count them (DESIGN.md §6.11).
// Every broker signs once — a forwarding hop the layer it seals onward,
// the destination the grant's one statement — and the user signs its
// layer: N+1 signatures, 4, 6 and 9 at N = 3, 5 and 8 (6, 10 and 16
// while every hop signed a grant approval too), whatever the policy.
// Under the default policy the source checks the user's layer, each
// transit hop the layer its neighbour signed, and the destination all
// N: 5, 9 and 15. A policy that names the user makes every hop audit
// the whole onion, hop k checking k+1 layers: 6, 15 and 36.
// bb_layers_vouched_total counts what the transit hops took on their
// neighbour's word. The name puts it under make alloc-gate.
func TestReserveSignatureCheckAllocationBound(t *testing.T) {
	for _, row := range []struct {
		n               int
		namesUser       bool
		signed, checked int
	}{
		{3, false, 4, 5}, {5, false, 6, 9}, {8, false, 9, 15},
		{3, true, 4, 6}, {5, true, 6, 15}, {8, true, 9, 36},
	} {
		n, namesUser := row.n, row.namesUser
		cfg := WorldConfig{EnableObs: true}
		if namesUser {
			cfg.Policies = map[string]*policy.Policy{}
			for i := 0; i < n; i++ {
				cfg.Policies[fmt.Sprintf("Domain%d", i)] = policy.MustParse("alice-only",
					fmt.Sprintf("allow if user = %q and bw <= avail\ndeny", identity.NewDN("Grid", "Domain0", "alice")))
			}
		}
		w, u := chainUser(t, n, cfg)
		if err := reserveAndCancel(w, u); err != nil {
			t.Fatalf("%d domains, names user %v: %v", n, namesUser, err)
		}
		signed, checked := 1, 0 // the user signed its own layer
		for k := 0; k < n; k++ {
			checks, vouched := k+1, 0
			switch {
			case namesUser:
			case k == n-1:
				checks = n
			default:
				checks, vouched = 1, k
			}
			m := w.Metrics[fmt.Sprintf("Domain%d", k)].Snapshot()
			got := m["bb_layer_signatures_verified_total"]
			checked += int(got)
			if got != float64(checks) {
				t.Errorf("%d domains, names user %v: Domain%d checked %.0f layer signatures, want %d", n, namesUser, k, got, checks)
			}
			if got := m["bb_layers_vouched_total"]; got != float64(vouched) {
				t.Errorf("%d domains, names user %v: Domain%d vouched for %.0f layers, want %d", n, namesUser, k, got, vouched)
			}
			made := m["bb_signatures_made_total"]
			signed += int(made)
			if made != 1 {
				t.Errorf("%d domains, names user %v: Domain%d made %.0f signatures, want 1", n, namesUser, k, made)
			}
		}
		if signed != row.signed || checked != row.checked {
			t.Errorf("%d domains, names user %v: a reserve and its cancel make %d signatures and check %d, want %d and %d",
				n, namesUser, signed, checked, row.signed, row.checked)
		}
	}
}

// reserveCycle is one reserve and its cancel across n domains, on the
// in-memory transport with warm connections, certificate caches and DN
// tables.
func reserveCycle(t *testing.T, n int) func() {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	w, u := chainUser(t, n, WorldConfig{})
	cycle := func() {
		if err := reserveAndCancel(w, u); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	return cycle
}

// reserveCycleAllocs measures reserveCycle in objects allocated in the
// whole process.
func reserveCycleAllocs(t *testing.T, n int) float64 {
	t.Helper()
	return testing.AllocsPerRun(200, reserveCycle(t, n))
}

// TestReserveChainAllocationBound: one 8-domain reserve and its cancel
// allocate at most 222 objects. Verifying the onion allocates per
// request, not per layer (DESIGN.md §6.11), a hop passes on the grant it
// was answered with as the bytes it came in (§6.6, "Who owns a frame"),
// seals its layer and signature into a recycled buffer and takes the
// brokers' DNs from its topology's DN table, copying the user's alone,
// only the destination signs a grant, and a policy decision allocates
// nothing: 214 were measured, 231 when each hop's decision put its
// policy request and result on the heap, 261 when
// each hop sealed into a fresh payload, signed into a fresh signature
// and copied the onion and the channel peer's DN, 283 when each
// forwarding hop decoded the grant into a list and a signature array,
// 309 when every forwarding hop signed its own approval beside its
// downstream call, 361 when each hop copied every approval below it, 371
// when every hop checked every layer, 570 when each layer cost two
// structs, each check run its closures and each decision its reason.
func TestReserveChainAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	allocs := reserveCycleAllocs(t, 8)
	t.Logf("8-domain reserve + cancel: %.1f objects", allocs)
	if allocs > 222 {
		t.Errorf("8-domain reserve + cancel allocates %.1f objects, want at most 222", allocs)
	}
}

// TestReserveChainByteAllocationBound: one 8-domain reserve and its
// cancel allocate at most 56 KiB in the whole process. Each layer a hop
// wraps carries the whole onion below it, so every copy of the onion a
// hop makes costs bytes that grow with the square of the path: a
// forwarding hop seals its layer into a buffer it recycles once the
// call that sent it has returned, and decodes the onion's broker DNs
// through its topology's DN table and copies the user's, so the
// transport's send copy is the one copy of the onion left (DESIGN.md
// §6.6, "Who owns a frame"). 51.1 KiB were measured, 52.2–52.8 while
// each policy decision allocated its request and result, 87.2–87.7
// while each hop also sealed into a fresh buffer and cut the onion's
// DNs from a string copy of it.
func TestReserveChainByteAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	cycle := reserveCycle(t, 8)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	kib := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
	t.Logf("8-domain reserve + cancel: %.1f KiB", kib)
	if kib > 56 {
		t.Errorf("8-domain reserve + cancel allocates %.1f KiB, want at most 56", kib)
	}
}

// TestReserveAllocationBoundPerDomain: each domain a reserve crosses
// costs the same number of objects, wherever on the path it sits. A
// forwarding hop's grant comes as one string whatever its depth, and
// goes upstream as it is. 25 per domain were measured at N = 3 to 8, the
// user's DN copied once at each (27 while each policy decision allocated
// its request and result, 31 while each hop sealed into a fresh
// payload and signature and copied the onion and its channel peer's
// DN, 34 while each forwarding hop
// decoded the grant into a list and a signature array, 38 while each
// signed an approval of its own beside its downstream call); copying
// each approval below a hop cost 44
// objects for the fourth domain, rising to 48.5 for the seventh and
// eighth.
func TestReserveAllocationBoundPerDomain(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	ns := []int{3, 4, 5, 6, 8}
	allocs := make([]float64, len(ns))
	for i, n := range ns {
		allocs[i] = reserveCycleAllocs(t, n)
		t.Logf("%d-domain reserve + cancel: %.1f objects", n, allocs[i])
	}
	first := allocs[1] - allocs[0]
	for i := 1; i < len(ns); i++ {
		per := (allocs[i] - allocs[i-1]) / float64(ns[i]-ns[i-1])
		if math.Abs(per-first) > 0.5 {
			t.Errorf("from %d to %d domains a reserve + cancel costs %.1f objects per domain, from %d to %d %.1f: the cost of a hop grows with its depth",
				ns[i-1], ns[i], per, ns[0], ns[1], first)
		}
	}
}
