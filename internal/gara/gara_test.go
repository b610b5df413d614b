package gara_test

import (
	"fmt"
	"testing"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/gara"
	"e2eqos/internal/units"
)

func buildWorld(t *testing.T, domains int, universalTrust bool) *experiment.World {
	t.Helper()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:            domains,
		Capacity:              100 * units.Mbps,
		TrustUserCAEverywhere: universalTrust,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func newUser(t *testing.T, w *experiment.World, name string) *experiment.User {
	t.Helper()
	u, err := w.NewUser(name, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	return u
}

func TestStrategiesGrantAndCommit(t *testing.T) {
	for _, strat := range []gara.Strategy{gara.Sequential, gara.Concurrent, gara.HopByHop} {
		t.Run(strat.String(), func(t *testing.T) {
			w := buildWorld(t, 4, true)
			u := newUser(t, w, "alice")
			api := gara.NewNetworkAPI(w.Topo)
			spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
			res, err := api.Reserve(u, spec, strat)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Granted {
				t.Fatalf("denied: %s", res.Reason)
			}
			at := spec.Window.Start.Add(time.Minute)
			for _, dom := range w.Domains {
				if got := w.BBs[dom].Table().CommittedAt(at); got != 10*units.Mbps {
					t.Errorf("%s committed = %v", dom, got)
				}
			}
			if err := api.Cancel(u, spec, strat); err != nil {
				t.Fatalf("cancel: %v", err)
			}
			for _, dom := range w.Domains {
				if got := w.BBs[dom].Table().CommittedAt(at); got != 0 {
					t.Errorf("%s committed after cancel = %v", dom, got)
				}
			}
		})
	}
}

func TestSourceDomainRollbackOnFailure(t *testing.T) {
	// Fill the last domain so it denies; sequential and concurrent
	// must roll the earlier domains back.
	for _, strat := range []gara.Strategy{gara.Sequential, gara.Concurrent} {
		t.Run(strat.String(), func(t *testing.T) {
			w := buildWorld(t, 3, true)
			u := newUser(t, w, "alice")
			api := gara.NewNetworkAPI(w.Topo)
			// Exhaust the destination domain.
			filler := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 100 * units.Mbps})
			if res, err := u.ReserveLocalAt(w.DestDomain(), filler); err != nil || !res.Granted {
				t.Fatalf("filler failed: %v %+v", err, res)
			}
			spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
			spec.Window = filler.Window
			res, err := api.Reserve(u, spec, strat)
			if err != nil {
				t.Fatal(err)
			}
			if res.Granted {
				t.Fatal("grant despite exhausted destination")
			}
			at := spec.Window.Start.Add(time.Minute)
			for _, dom := range w.Domains[:len(w.Domains)-1] {
				if got := w.BBs[dom].Table().CommittedAt(at); got != 0 {
					t.Errorf("%s not rolled back: %v", dom, got)
				}
			}
		})
	}
}

func TestMisreservationPossibleWithSourceDomainSignalling(t *testing.T) {
	// The Figure 4 attack: David "modifies the implementation to skip
	// a domain": he reserves locally in all domains EXCEPT the
	// destination. Source-domain signalling cannot prevent this.
	w := buildWorld(t, 3, true)
	david := newUser(t, w, "david")
	spec := david.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 50 * units.Mbps})
	for _, dom := range w.Domains[:len(w.Domains)-1] {
		res, err := david.ReserveLocalAt(dom, spec)
		if err != nil || !res.Granted {
			t.Fatalf("local reservation at %s failed: %v %+v", dom, err, res)
		}
	}
	at := spec.Window.Start.Add(time.Minute)
	if got := w.BBs[w.Domains[1]].Table().CommittedAt(at); got != 50*units.Mbps {
		t.Errorf("intermediate commitment = %v, want 50Mb/s (the attack state)", got)
	}
	if got := w.BBs[w.DestDomain()].Table().CommittedAt(at); got != 0 {
		t.Errorf("destination commitment = %v, want 0 (skipped)", got)
	}
}

func TestCoordinatorBaseline(t *testing.T) {
	// Only the RC's CA needs universal trust; end users stay unknown
	// to remote domains. We model this with the RC as a trusted user.
	w := buildWorld(t, 3, true)
	rc := newUser(t, w, "reservation-coordinator")
	endUser := newUser(t, w, "alice")
	api := gara.NewNetworkAPI(w.Topo)
	coord := gara.NewCoordinator(api, rc)

	spec := endUser.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	rcSpec, res, err := coord.ReserveFor(spec, gara.Concurrent)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted {
		t.Fatalf("RC reservation denied: %s", res.Reason)
	}
	if rcSpec.User != rc.DN() {
		t.Errorf("RC spec user = %s", rcSpec.User)
	}
	if _, _, err := coord.ReserveFor(spec, gara.HopByHop); err == nil {
		t.Error("coordinator accepted hop-by-hop strategy")
	}
}

// coWorld builds a 3-domain chain whose destination, Domain2, holds the
// given pools.
func coWorld(t *testing.T, capacity units.Bandwidth, pools map[string]units.Bandwidth) *experiment.World {
	t.Helper()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 3,
		Capacity:   capacity,
		Pools:      map[string]map[string]units.Bandwidth{"Domain2": pools},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestCoReservationNetworkPlusCPU(t *testing.T) {
	w := coWorld(t, 100*units.Mbps, map[string]units.Bandwidth{"cpu": 8})
	u := newUser(t, w, "alice")
	api := gara.NewNetworkAPI(w.Topo)
	cpus := w.Pools["Domain2"]["cpu"]
	co := &gara.CoReserver{API: api, Pools: w.Pools["Domain2"]}

	spec := u.NewSpec(experiment.SpecOptions{DestDomain: "Domain2", Bandwidth: 10 * units.Mbps})
	handles, res, err := co.Reserve(u, gara.CoRequest{Spec: spec, Pools: map[string]units.Bandwidth{"cpu": 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted {
		t.Fatalf("co-reservation denied: %s", res.Reason)
	}
	if len(handles) != 2 {
		t.Fatalf("handles = %v", handles)
	}
	if handles[0].Type != "cpu" || handles[1].Type != gara.Network {
		t.Errorf("handle types = %v", handles)
	}
	if spec.LinkedHandles["cpu"] == "" {
		t.Error("CPU handle not linked into the network spec")
	}
	if cpus.Available(spec.Window) != 4 {
		t.Errorf("CPU pool = %d free, want 4", cpus.Available(spec.Window))
	}
}

func TestCoReservationRollsBackCPUOnNetworkFailure(t *testing.T) {
	w := coWorld(t, 20*units.Mbps, map[string]units.Bandwidth{"cpu": 8})
	u := newUser(t, w, "alice")
	api := gara.NewNetworkAPI(w.Topo)
	co := &gara.CoReserver{API: api, Pools: w.Pools["Domain2"]}

	spec := u.NewSpec(experiment.SpecOptions{DestDomain: "Domain2", Bandwidth: 50 * units.Mbps}) // beyond capacity
	_, res, err := co.Reserve(u, gara.CoRequest{Spec: spec, Pools: map[string]units.Bandwidth{"cpu": 4}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("over-capacity network reservation granted")
	}
	if got := w.Pools["Domain2"]["cpu"].Available(spec.Window); got != 8 {
		t.Errorf("CPU pool = %d free after rollback, want 8", got)
	}
}

// TestCoReservationRollsBackEarlierPools: pools are taken in name order,
// and one that cannot admit releases those taken before it.
func TestCoReservationRollsBackEarlierPools(t *testing.T) {
	w := coWorld(t, 100*units.Mbps, map[string]units.Bandwidth{"cpu": 8, "disk": 400 * units.Mbps})
	u := newUser(t, w, "alice")
	pools := w.Pools["Domain2"]
	co := &gara.CoReserver{API: gara.NewNetworkAPI(w.Topo), Pools: pools}
	t0 := time.Now().Add(time.Minute)

	handles, err := coReserve(co, u, after(t0, 0, 60), map[string]units.Bandwidth{"disk": 300 * units.Mbps, "cpu": 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(handles) != 3 || handles[0].Type != "cpu" || handles[1].Type != "disk" || handles[1].Domain != "Domain2" {
		t.Fatalf("handles = %v, want cpu, disk, network", handles)
	}

	// Over the next hour both pools are free, but 500 Mb/s is more than
	// the disk has: the CPUs taken first must be released again.
	if _, err := coReserve(co, u, after(t0, 60, 60), map[string]units.Bandwidth{"cpu": 8, "disk": 500 * units.Mbps}); err == nil {
		t.Error("over-committed disk")
	}
	if got := pools["cpu"].Available(after(t0, 60, 60)); got != 8 {
		t.Errorf("cpu pool = %d free after the disk refused, want 8 (rolled back)", got)
	}
}

// after returns the window of durMin minutes that starts startMin minutes
// after t0.
func after(t0 time.Time, startMin, durMin int) units.Window {
	return units.NewWindow(t0.Add(time.Duration(startMin)*time.Minute), time.Duration(durMin)*time.Minute)
}

// coReserve asks co for the given pool amounts over w alongside a 1 Mb/s
// flow to Domain2, and returns the handles or why they were refused.
func coReserve(co *gara.CoReserver, u *experiment.User, w units.Window, pools map[string]units.Bandwidth) ([]gara.Handle, error) {
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: "Domain2", Bandwidth: units.Mbps, Window: w})
	handles, res, err := co.Reserve(u, gara.CoRequest{Spec: spec, Pools: pools})
	if err == nil && !res.Granted {
		err = fmt.Errorf("denied: %s", res.Reason)
	}
	return handles, err
}

func TestCPUPoolValidation(t *testing.T) {
	if _, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 3,
		Pools:      map[string]map[string]units.Bandwidth{"Domain0": {"cpu": 0}},
	}); err == nil {
		t.Fatal("zero CPUs accepted")
	}
	cpus := coWorld(t, 100*units.Mbps, map[string]units.Bandwidth{"cpu": 16}).Pools["Domain2"]["cpu"]
	if free := cpus.Available(units.NewWindow(time.Now(), time.Hour)); free != 16 || cpus.Name() != "cpu-Domain2" {
		t.Errorf("capacity=%d name=%s", free, cpus.Name())
	}
}

func TestCPUReserveAndValidate(t *testing.T) {
	w := coWorld(t, 100*units.Mbps, map[string]units.Bandwidth{"cpu": 8})
	u := newUser(t, w, "alice")
	cpus := w.Pools["Domain2"]["cpu"]
	co := &gara.CoReserver{API: gara.NewNetworkAPI(w.Topo), Pools: w.Pools["Domain2"]}
	t0 := time.Now().Add(time.Minute)

	handles, err := coReserve(co, u, after(t0, 0, 60), map[string]units.Bandwidth{"cpu": 4})
	if err != nil {
		t.Fatal(err)
	}
	h := handles[0].ID
	if !cpus.Covers(h, u.DN(), after(t0, 30, 1)) {
		t.Error("active reservation invalid")
	}
	if cpus.Covers(h, u.DN(), after(t0, 120, 1)) {
		t.Error("expired reservation valid")
	}
	if cpus.Covers("bogus", u.DN(), after(t0, 0, 1)) {
		t.Error("unknown handle valid")
	}
	if !cpus.Covers(h, u.DN(), after(t0, 10, 20)) {
		t.Error("covered window invalid")
	}
	if cpus.Covers(h, u.DN(), after(t0, 30, 60)) {
		t.Error("partially covered window valid")
	}
}

func TestCPUAdmissionControl(t *testing.T) {
	w := coWorld(t, 100*units.Mbps, map[string]units.Bandwidth{"cpu": 8})
	u := newUser(t, w, "alice")
	cpus := w.Pools["Domain2"]["cpu"]
	co := &gara.CoReserver{API: gara.NewNetworkAPI(w.Topo), Pools: w.Pools["Domain2"]}
	t0 := time.Now().Add(time.Minute)

	if _, err := coReserve(co, u, after(t0, 0, 60), map[string]units.Bandwidth{"cpu": 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := coReserve(co, u, after(t0, 30, 60), map[string]units.Bandwidth{"cpu": 1}); err == nil {
		t.Error("over-committed CPU pool")
	}
	if _, err := coReserve(co, u, after(t0, 60, 60), map[string]units.Bandwidth{"cpu": 8}); err != nil {
		t.Errorf("disjoint window rejected: %v", err)
	}
	if got := cpus.Available(after(t0, 0, 60)); got != 0 {
		t.Errorf("available = %d", got)
	}
	if _, err := coReserve(co, u, after(t0, 0, 10), map[string]units.Bandwidth{"cpu": 0}); err == nil {
		t.Error("zero CPUs accepted")
	}
}

func TestCancelFreesCPUs(t *testing.T) {
	w := coWorld(t, 100*units.Mbps, map[string]units.Bandwidth{"cpu": 4})
	u := newUser(t, w, "alice")
	cpus := w.Pools["Domain2"]["cpu"]
	co := &gara.CoReserver{API: gara.NewNetworkAPI(w.Topo), Pools: w.Pools["Domain2"]}
	t0 := time.Now().Add(time.Minute)

	handles, err := coReserve(co, u, after(t0, 0, 60), map[string]units.Bandwidth{"cpu": 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := cpus.Cancel(handles[0].ID); err != nil {
		t.Fatal(err)
	}
	if cpus.Covers(handles[0].ID, u.DN(), after(t0, 1, 1)) {
		t.Error("cancelled handle still valid")
	}
	if _, err := coReserve(co, u, after(t0, 0, 60), map[string]units.Bandwidth{"cpu": 4}); err != nil {
		t.Errorf("capacity not freed: %v", err)
	}
}

func TestDiskReserveCancelCycle(t *testing.T) {
	w := coWorld(t, 100*units.Mbps, map[string]units.Bandwidth{"disk": 400 * units.Mbps})
	u := newUser(t, w, "alice")
	disk := w.Pools["Domain2"]["disk"]
	co := &gara.CoReserver{API: gara.NewNetworkAPI(w.Topo), Pools: w.Pools["Domain2"]}
	t0 := time.Now().Add(time.Minute)

	if free := disk.Available(after(t0, 0, 30)); free != 400*units.Mbps || disk.Name() != "disk-Domain2" {
		t.Errorf("capacity=%v name=%s", free, disk.Name())
	}
	handles, err := coReserve(co, u, after(t0, 0, 30), map[string]units.Bandwidth{"disk": 300 * units.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if !disk.Covers(handles[0].ID, u.DN(), after(t0, 10, 1)) {
		t.Error("active reservation invalid")
	}
	if _, err := coReserve(co, u, after(t0, 0, 30), map[string]units.Bandwidth{"disk": 200 * units.Mbps}); err == nil {
		t.Error("overbooked disk")
	}
	if got := disk.Available(after(t0, 0, 30)); got != 100*units.Mbps {
		t.Errorf("available = %v", got)
	}
	if err := disk.Cancel(handles[0].ID); err != nil {
		t.Fatal(err)
	}
	if _, err := coReserve(co, u, after(t0, 0, 30), map[string]units.Bandwidth{"disk": 400 * units.Mbps}); err != nil {
		t.Errorf("capacity not freed: %v", err)
	}
}

func TestDiskPoolRejectsBadRate(t *testing.T) {
	if _, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 3,
		Pools:      map[string]map[string]units.Bandwidth{"Domain0": {"disk": 0}},
	}); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestCoReservationMissingManager(t *testing.T) {
	w := buildWorld(t, 2, false)
	u := newUser(t, w, "alice")
	api := gara.NewNetworkAPI(w.Topo)
	co := &gara.CoReserver{API: api} // no CPU pool
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	if _, _, err := co.Reserve(u, gara.CoRequest{Spec: spec, Pools: map[string]units.Bandwidth{"cpu": 2}}); err == nil {
		t.Fatal("co-reservation without CPU pool succeeded")
	}
}

func TestHandleString(t *testing.T) {
	h := gara.Handle{Type: gara.Network, Domain: "", ID: "RAR-1"}
	if h.String() != "network::RAR-1" {
		t.Errorf("String = %q", h.String())
	}
}
