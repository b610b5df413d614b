package experiment

import (
	"strings"
	"testing"
	"time"

	"e2eqos/internal/policy"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// figure6World builds the paper's 3-domain scenario with the Figure 6
// policy files and a CPU pool in domain C.
func figure6World(t *testing.T) *World {
	t.Helper()
	w, err := BuildWorld(WorldConfig{
		NumDomains: 3,
		Labels:     []string{"DomainA", "DomainB", "DomainC"},
		Capacity:   100 * units.Mbps,
		Policies: map[string]*policy.Policy{
			"DomainA": policy.Figure6PolicyA,
			"DomainB": policy.Figure6PolicyB,
			"DomainC": policy.Figure6PolicyC,
		},
		TrustedGroups: []string{"ATLAS experiment", "physicist"},
		Pools:         map[string]map[string]units.Bandwidth{"DomainC": {"cpu": 16}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// daytimeWindow starts tomorrow at noon UTC: inside Figure 6's
// business hours and within every certificate's validity.
func daytimeWindow(w *World) units.Window {
	now := w.clock()
	noon := time.Date(now.Year(), now.Month(), now.Day(), 12, 0, 0, 0, time.UTC).AddDate(0, 0, 1)
	return units.NewWindow(noon, time.Hour)
}

func TestFigure6EndToEndGrant(t *testing.T) {
	w := figure6World(t)
	alice, err := w.NewUser("Alice", "DomainA", []string{"network-reservation"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	// Alice needs a CPU reservation in DomainC for >= 5 Mb/s at C.
	cpu, err := w.Pools["DomainC"]["cpu"].Admit(resv.AdmitRequest{User: alice.DN(), Bandwidth: 4, Window: daytimeWindow(w)})
	if err != nil {
		t.Fatal(err)
	}

	spec := alice.NewSpec(SpecOptions{
		DestDomain: "DomainC",
		Bandwidth:  10 * units.Mbps,
		Window:     daytimeWindow(w),
		Linked:     map[string]string{"cpu": cpu.Handle},
	})
	res, err := alice.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted {
		t.Fatalf("end-to-end reservation denied: %s", res.Reason)
	}
	// One signed approval per domain, destination first.
	if len(res.Approvals) != 3 {
		t.Fatalf("approvals = %d, want 3", len(res.Approvals))
	}
	if res.Approvals[0].Domain != "DomainC" || res.Approvals[2].Domain != "DomainA" {
		t.Errorf("approval order: %s, %s, %s",
			res.Approvals[0].Domain, res.Approvals[1].Domain, res.Approvals[2].Domain)
	}
	if err := w.VerifyApprovals(res); err != nil {
		t.Errorf("approval signatures: %v", err)
	}
	// Capacity committed in every domain.
	for _, dom := range w.Domains {
		if got := w.BBs[dom].Table().CommittedAt(spec.Window.Start.Add(time.Minute)); got != 10*units.Mbps {
			t.Errorf("%s committed = %v, want 10Mb/s", dom, got)
		}
	}
}

func TestFigure6DenialsPropagate(t *testing.T) {
	w := figure6World(t)
	alice, err := w.NewUser("Alice", "DomainA", []string{"network-reservation"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	// No CPU reservation: DomainC's policy must deny >= 5 Mb/s, and the
	// denial must identify the refusing domain.
	spec := alice.NewSpec(SpecOptions{
		DestDomain: "DomainC",
		Bandwidth:  10 * units.Mbps,
		Window:     daytimeWindow(w),
	})
	res, err := alice.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("reservation without CPU co-reservation granted")
	}
	if !strings.Contains(res.Reason, "DomainC") {
		t.Errorf("denial reason does not name the denying domain: %q", res.Reason)
	}
	// Upstream domains must have rolled their optimistic admissions back.
	for _, dom := range w.Domains {
		if got := w.BBs[dom].Table().CommittedAt(spec.Window.Start.Add(time.Minute)); got != 0 {
			t.Errorf("%s committed = %v after denial, want 0", dom, got)
		}
	}
}

func TestFigure6SmallReservationNeedsNoCPU(t *testing.T) {
	w := figure6World(t)
	alice, err := w.NewUser("Alice", "DomainA", []string{"network-reservation"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	// < 5 Mb/s passes C without the CPU link; B needs the capability.
	spec := alice.NewSpec(SpecOptions{
		DestDomain: "DomainC",
		Bandwidth:  4 * units.Mbps,
		Window:     daytimeWindow(w),
	})
	res, err := alice.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted {
		t.Fatalf("small reservation denied: %s", res.Reason)
	}
}

func TestFigure6BobDeniedAtSource(t *testing.T) {
	w := figure6World(t)
	bob, err := w.NewUser("Bob", "DomainA", []string{"network-reservation"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()
	spec := bob.NewSpec(SpecOptions{DestDomain: "DomainC", Bandwidth: 1 * units.Mbps, Window: daytimeWindow(w)})
	res, err := bob.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("Bob granted despite domain A policy")
	}
	if !strings.Contains(res.Reason, "DomainA") {
		t.Errorf("reason = %q", res.Reason)
	}
	// B and C were never touched.
	for _, dom := range []string{"DomainB", "DomainC"} {
		if got := w.BBs[dom].Table().CommittedAt(w.clock().Add(2 * time.Minute)); got != 0 {
			t.Errorf("%s committed = %v", dom, got)
		}
	}
}

func TestGroupMembershipPathThroughB(t *testing.T) {
	w := figure6World(t)
	// Alice without a CAS capability but in the ATLAS experiment: B
	// grants via the validated assertion; C grants < 5 Mb/s.
	alice, err := w.NewUser("Alice", "DomainA", nil, []string{"ATLAS experiment"})
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	spec := alice.NewSpec(SpecOptions{
		DestDomain: "DomainC",
		Bandwidth:  4 * units.Mbps,
		Window:     daytimeWindow(w),
	})
	spec.Assertions = []string{"ATLAS experiment"}
	res, err := alice.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted {
		t.Fatalf("ATLAS member denied: %s", res.Reason)
	}
}

func TestCancelPropagatesDownstream(t *testing.T) {
	w := figure6World(t)
	alice, err := w.NewUser("Alice", "DomainA", []string{"network-reservation"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	spec := alice.NewSpec(SpecOptions{DestDomain: "DomainC", Bandwidth: 4 * units.Mbps, Window: daytimeWindow(w)})
	res, err := alice.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("setup reservation failed: %v / %+v", err, res)
	}
	if err := alice.Cancel("DomainA", spec.RARID); err != nil {
		t.Fatal(err)
	}
	for _, dom := range w.Domains {
		if got := w.BBs[dom].Table().CommittedAt(spec.Window.Start.Add(time.Minute)); got != 0 {
			t.Errorf("%s committed = %v after cancel, want 0", dom, got)
		}
	}
	// Cancelling again fails cleanly.
	if err := alice.Cancel("DomainA", spec.RARID); err == nil {
		t.Error("double cancel succeeded")
	}
}

func TestAdmissionControlExhaustsCapacity(t *testing.T) {
	w, err := BuildWorld(WorldConfig{NumDomains: 3, Capacity: 25 * units.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	alice, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	win := units.NewWindow(time.Now().Add(time.Minute), time.Hour)
	for i := 0; i < 2; i++ {
		spec := alice.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps, Window: win})
		res, err := alice.ReserveE2E(spec)
		if err != nil || !res.Granted {
			t.Fatalf("reservation %d failed: %v %+v", i, err, res)
		}
	}
	spec := alice.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps, Window: win})
	res, err := alice.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("third 10Mb/s reservation granted into 25Mb/s capacity")
	}
}

func TestSourceDomainBaselineLocalReservations(t *testing.T) {
	// Approach 1: Alice contacts each BB herself; requires universal
	// trust in the user CA.
	w, err := BuildWorld(WorldConfig{NumDomains: 3, TrustUserCAEverywhere: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	alice, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	spec := alice.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	for _, dom := range w.Domains {
		res, err := alice.ReserveLocalAt(dom, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Granted {
			t.Fatalf("local reservation at %s denied: %s", dom, res.Reason)
		}
	}
	for _, dom := range w.Domains {
		if got := w.BBs[dom].Table().CommittedAt(spec.Window.Start.Add(time.Minute)); got != 10*units.Mbps {
			t.Errorf("%s committed = %v", dom, got)
		}
	}
}

func TestBaselineFailsWithoutUniversalTrust(t *testing.T) {
	// Without TrustUserCAEverywhere, a remote domain cannot
	// authenticate Alice: the paper's core scaling criticism of
	// Approach 1.
	w, err := BuildWorld(WorldConfig{NumDomains: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	alice, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	spec := alice.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	res, err := alice.ReserveLocalAt(w.DestDomain(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("remote domain authenticated an unknown user")
	}
}

func TestMisreservationImpossibleHopByHop(t *testing.T) {
	// Figure 4 control-plane half: with hop-by-hop signalling David
	// cannot reserve in a path prefix only — the denial at C rolls
	// everything back.
	w := figure6World(t)
	david, err := w.NewUser("David", "DomainA", []string{"network-reservation"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer david.Close()
	// David is denied at A (policy: only Alice); even a well-formed
	// request cannot create partial state.
	spec := david.NewSpec(SpecOptions{DestDomain: "DomainC", Bandwidth: 10 * units.Mbps, Window: daytimeWindow(w)})
	res, err := david.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("David granted")
	}
	for _, dom := range w.Domains {
		if got := w.BBs[dom].Table().CommittedAt(w.clock().Add(2 * time.Minute)); got != 0 {
			t.Errorf("%s has residual commitment %v", dom, got)
		}
	}
}

func TestTunnelEstablishAndSubFlows(t *testing.T) {
	w, err := BuildWorld(WorldConfig{NumDomains: 4, Capacity: 100 * units.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	alice, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	spec := alice.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 50 * units.Mbps, Tunnel: true})
	res, err := alice.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("tunnel establishment failed: %v %+v", err, res)
	}

	src := w.BBs[w.SourceDomain()]
	// Allocate sub-flows: only the two end domains are contacted.
	msgsBefore := w.Net.Messages()
	for i := 0; i < 5; i++ {
		if err := src.AllocateTunnelFlow(spec.RARID, fmtSub(i), 10*units.Mbps, alice.DN()); err != nil {
			t.Fatalf("sub-flow %d: %v", i, err)
		}
	}
	msgsPerFlow := float64(w.Net.Messages()-msgsBefore) / 5
	if msgsPerFlow > 2.5 {
		t.Errorf("sub-flow allocation used %.1f messages per flow; tunnels must not touch intermediates", msgsPerFlow)
	}
	// Aggregate exhausted: the next allocation must fail.
	if err := src.AllocateTunnelFlow(spec.RARID, "overflow", 10*units.Mbps, alice.DN()); err == nil {
		t.Fatal("allocation beyond tunnel aggregate succeeded")
	}
	// Release one and retry.
	if err := src.ReleaseTunnelFlow(spec.RARID, fmtSub(0)); err != nil {
		t.Fatal(err)
	}
	if err := src.AllocateTunnelFlow(spec.RARID, "refill", 10*units.Mbps, alice.DN()); err != nil {
		t.Fatalf("allocation after release failed: %v", err)
	}
	// Both endpoints agree on usage.
	srcEp, _ := src.Tunnel(spec.RARID)
	dstEp, ok := w.BBs[w.DestDomain()].Tunnel(spec.RARID)
	if !ok {
		t.Fatal("destination has no tunnel endpoint")
	}
	if srcEp.Used() != dstEp.Used() {
		t.Errorf("endpoint usage diverged: %v vs %v", srcEp.Used(), dstEp.Used())
	}
}

func fmtSub(i int) string { return "sub-" + string(rune('a'+i)) }

func TestTunnelAllocRejectsStrangers(t *testing.T) {
	w, err := BuildWorld(WorldConfig{NumDomains: 3, TrustUserCAEverywhere: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	alice, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	spec := alice.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 50 * units.Mbps, Tunnel: true})
	res, err := alice.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("tunnel establishment failed: %v %+v", err, res)
	}
	// Mallory tries to allocate directly at the destination.
	mallory, err := w.NewUser("mallory", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mallory.Close()
	res, err = tunnelBatch(mallory, w.DestDomain(), &signalling.TunnelBatchPayload{
		TunnelRARID: spec.RARID,
		Seq:         1,
		User:        mallory.DN(),
		Ops:         []signalling.TunnelOp{{Action: signalling.OpAlloc, SubFlowID: "steal", Bandwidth: int64(units.Mbps)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted || !strings.Contains(res.Reason, "not authorized") {
		t.Fatalf("stranger's allocation on someone else's tunnel: %+v", res)
	}
}
