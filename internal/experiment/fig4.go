package experiment

import (
	"fmt"
	"time"

	"e2eqos/internal/dsim"
	"e2eqos/internal/identity"
	"e2eqos/internal/netsim"
	"e2eqos/internal/sla"
	"e2eqos/internal/topology"
	"e2eqos/internal/units"
)

// Figure4Result is the outcome of one misreservation scenario run.
type Figure4Result struct {
	Scenario string
	// AliceGoodput / DavidGoodput are measured rates in bits/s over
	// the measurement window.
	AliceGoodput float64
	DavidGoodput float64
	// AlicePremiumShare is the fraction of Alice's received bytes that
	// kept the premium marking.
	AlicePremiumShare float64
	// DropsAtC counts premium packets the destination policer killed.
	DropsAtC int64
	// DavidReservedAtC reports whether the control plane let David
	// install state at the destination.
	DavidReservedAtC bool
}

// fig4Topology is the Figure 4 shape: Alice in A, David in D, both
// paths share B -> C.
func fig4Topology() (*topology.Topology, error) {
	topo := topology.New()
	for _, name := range []string{"DomainA", "DomainB", "DomainC", "DomainD"} {
		if err := topo.AddDomain(topology.Domain{Name: name, BBDN: identity.NewDN("Grid", name, "bb")}); err != nil {
			return nil, err
		}
	}
	for _, l := range []topology.Link{
		{A: "DomainA", B: "DomainB", Capacity: units.Gbps},
		{A: "DomainD", B: "DomainB", Capacity: units.Gbps},
		{A: "DomainB", B: "DomainC", Capacity: units.Gbps},
	} {
		if err := topo.AddLink(l); err != nil {
			return nil, err
		}
	}
	return topo, nil
}

// RunFigure4 reproduces the misreservation attack on the packet-level
// DiffServ simulator. Both scenarios run the same data plane — Alice
// (A->C, 10 Mb/s reserved end-to-end) and David (D->C, 10 Mb/s) — and
// differ only in the control plane:
//
//   - source-domain: David reserves in D and B but skips C (nothing in
//     Approach 1 prevents this). C's ingress policer admits only the
//     10 Mb/s it granted to Alice, cannot tell the flows apart, and
//     drops half of everyone's premium traffic: Alice's guarantee
//     breaks.
//   - hop-by-hop: David's request is propagated by the brokers
//     themselves and denied at C (no capacity for him), so no upstream
//     state survives; his traffic stays best effort and Alice keeps
//     her reservation.
func RunFigure4(duration time.Duration) ([]Figure4Result, *Table, error) {
	var results []Figure4Result
	for _, scenario := range []string{"source-domain (attack)", "hop-by-hop (protected)"} {
		res, err := runFig4Scenario(scenario, duration)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", scenario, err)
		}
		results = append(results, res)
	}
	t := &Table{
		ID:    "fig4",
		Title: "Misreservation attack on the DiffServ data plane (Figure 4)",
		Claim: `"there will be more reserved traffic entering domain C than domain C expects, causing it to discard or downgrade the extra traffic, thereby affecting Alice's reservation"`,
		Columns: []string{
			"scenario", "david state at C", "alice goodput", "alice premium share", "david goodput", "premium drops at C",
		},
	}
	for _, r := range results {
		state := "none (skipped)"
		if r.DavidReservedAtC {
			state = "reserved"
		}
		if r.Scenario == "hop-by-hop (protected)" {
			state = "denied by C"
		}
		t.AddRow(r.Scenario, state,
			fmt.Sprintf("%.2f Mb/s", r.AliceGoodput/1e6),
			fmt.Sprintf("%.0f%%", r.AlicePremiumShare*100),
			fmt.Sprintf("%.2f Mb/s", r.DavidGoodput/1e6),
			fmt.Sprintf("%d", r.DropsAtC),
		)
	}
	t.Notes = append(t.Notes,
		"Alice has a valid 10 Mb/s end-to-end reservation in both scenarios; only David's behaviour differs",
	)
	return results, t, nil
}

func runFig4Scenario(scenario string, duration time.Duration) (Figure4Result, error) {
	return runFig4ScenarioRate(scenario, duration, 10*units.Mbps)
}

// fig4SweepRates are the attacker loads of the severity sweep.
var fig4SweepRates = []units.Bandwidth{
	2 * units.Mbps, 5 * units.Mbps, 10 * units.Mbps, 20 * units.Mbps, 40 * units.Mbps,
}

// RunFigure4Sweep measures how the attack's damage to Alice scales
// with the attacker's unpoliced load: the more premium traffic David
// injects past B, the smaller Alice's share of C's fixed aggregate.
func RunFigure4Sweep(duration time.Duration) (*Table, error) {
	t := &Table{
		ID:    "fig4-sweep",
		Title: "Misreservation severity vs attacker load (Figure 4)",
		Claim: "the honest user's share of the destination aggregate shrinks as unpoliced premium traffic grows",
		Columns: []string{
			"david load", "alice goodput", "alice share of reservation", "david goodput", "drops at C",
		},
	}
	for _, rate := range fig4SweepRates {
		r, err := runFig4ScenarioRate("source-domain (attack)", duration, rate)
		if err != nil {
			return nil, fmt.Errorf("rate %v: %w", rate, err)
		}
		t.AddRow(
			rate.String(),
			fmt.Sprintf("%.2f Mb/s", r.AliceGoodput/1e6),
			fmt.Sprintf("%.0f%%", 100*r.AliceGoodput/1e7),
			fmt.Sprintf("%.2f Mb/s", r.DavidGoodput/1e6),
			fmt.Sprintf("%d", r.DropsAtC),
		)
	}
	t.Notes = append(t.Notes,
		"Alice holds a valid 10 Mb/s end-to-end reservation in every row; only the attacker's load varies",
	)
	return t, nil
}

// runFig4ScenarioRate runs the Figure 4 data-plane scenario with a
// configurable attacker load (davidRate), used by the severity sweep.
func runFig4ScenarioRate(scenario string, duration time.Duration, davidRate units.Bandwidth) (Figure4Result, error) {
	out := Figure4Result{Scenario: scenario}
	topo, err := fig4Topology()
	if err != nil {
		return out, err
	}
	// Control plane: C's capacity only covers Alice's reservation; every
	// domain's default policy admits anything that fits.
	w, err := BuildWorld(WorldConfig{
		Topo:     topo,
		Capacity: 10 * units.Mbps,
		// DomainB and DomainD carry both users' aggregates; C only
		// Alice's.
		Capacities: map[string]units.Bandwidth{
			"DomainB": 10*units.Mbps + davidRate,
			"DomainD": davidRate + units.Mbps,
		},
		SLARate:               10*units.Mbps + davidRate,
		TrustUserCAEverywhere: true,
	})
	if err != nil {
		return out, err
	}
	defer w.Close()

	alice, err := w.NewUser("Alice", "DomainA", nil, nil)
	if err != nil {
		return out, err
	}
	defer alice.Close()
	david, err := w.NewUser("David", "DomainD", nil, nil)
	if err != nil {
		return out, err
	}
	defer david.Close()

	// Reservation windows cover "now" so the data plane sync picks
	// them up.
	win := units.NewWindow(w.clock().Add(-time.Minute), 2*time.Hour)

	// Data plane.
	sim := dsim.New()
	sink := netsim.NewSink(sim)
	policerC := netsim.NewPolicer(sim, sla.TrafficProfile{Rate: 1, BucketBytes: 1}, sink)
	// The shared link is provisioned above the combined offered load so
	// that the destination's aggregate policer — not link congestion —
	// is what decides packet fates, matching the figure's story.
	linkBC := netsim.NewLink(sim, 10*units.Mbps+davidRate+20*units.Mbps, policerC)
	policerB := netsim.NewPolicer(sim, sla.TrafficProfile{Rate: 1, BucketBytes: 1}, linkBC)
	markerA := netsim.NewEdgeMarker(sim, policerB) // A's edge feeds B's ingress
	markerD := netsim.NewEdgeMarker(sim, policerB) // D's edge feeds B's ingress
	w.Planes["DomainA"].AttachEdge(markerA)
	w.Planes["DomainD"].AttachEdge(markerD)
	w.Planes["DomainB"].AttachPolicer(policerB)
	w.Planes["DomainC"].AttachPolicer(policerC)

	// Each source seeds its jitter from its flow id, the RAR id: fixed
	// ids make the figure reproducible run to run.
	aliceSpec := alice.NewSpec(SpecOptions{DestDomain: "DomainC", Bandwidth: 10 * units.Mbps, Window: win})
	davidSpec := david.NewSpec(SpecOptions{DestDomain: "DomainC", Bandwidth: davidRate, Window: win})
	aliceSpec.RARID, davidSpec.RARID = "RAR-fig4-alice", "RAR-fig4-david"

	// Alice reserves end-to-end in both scenarios.
	res, err := alice.ReserveE2E(aliceSpec)
	if err != nil || !res.Granted {
		return out, fmt.Errorf("alice reservation failed: %v %+v", err, res)
	}

	switch scenario {
	case "source-domain (attack)":
		// David reserves in D and B only — "makes a reservation in
		// domains D and B, but fails to make a reservation in domain C".
		for _, dom := range []string{"DomainD", "DomainB"} {
			r, err := david.ReserveLocalAt(dom, davidSpec)
			if err != nil || !r.Granted {
				return out, fmt.Errorf("david local reservation at %s failed: %v %+v", dom, err, r)
			}
		}
		out.DavidReservedAtC = false
	default:
		// Hop-by-hop: the brokers propagate; C denies (capacity is
		// exhausted by Alice) and everything rolls back.
		r, err := david.ReserveE2E(davidSpec)
		if err != nil {
			return out, err
		}
		if r.Granted {
			return out, fmt.Errorf("david's hop-by-hop reservation unexpectedly granted")
		}
		out.DavidReservedAtC = false
	}

	// Traffic: both users send their full 10 Mb/s; packet sizes differ
	// slightly to avoid phase-locking artifacts.
	srcAlice := netsim.NewSource(sim, netsim.FlowID(aliceSpec.RARID), 10*units.Mbps, 1250, markerA)
	srcDavid := netsim.NewSource(sim, netsim.FlowID(davidSpec.RARID), davidRate, 1000, markerD)
	srcAlice.Jitter = 0.2
	srcDavid.Jitter = 0.2
	if err := srcAlice.Install(duration); err != nil {
		return out, err
	}
	if err := srcDavid.Install(duration); err != nil {
		return out, err
	}
	sim.Run(duration + 500*time.Millisecond)

	aliceStats := sink.Stats(netsim.FlowID(aliceSpec.RARID))
	davidStats := sink.Stats(netsim.FlowID(davidSpec.RARID))
	if aliceStats != nil {
		out.AliceGoodput = aliceStats.Goodput(duration)
		if aliceStats.RxBytes > 0 {
			out.AlicePremiumShare = float64(aliceStats.RxBytesByCls[netsim.Premium]) / float64(aliceStats.RxBytes)
		}
	}
	if davidStats != nil {
		out.DavidGoodput = davidStats.Goodput(duration)
	}
	out.DropsAtC = policerC.Dropped
	return out, nil
}
