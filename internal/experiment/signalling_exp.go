package experiment

import (
	"fmt"
	"time"

	"e2eqos/internal/gara"
	"e2eqos/internal/units"
)

// SignallingSample is one measured reservation run.
type SignallingSample struct {
	Latency  time.Duration // end-to-end reservation wall time
	Messages int64
}

// MeasureSignalling runs one reservation with the given strategy over
// a fresh linear world of n domains with the given one-way hop
// latency, and reports wall time plus message accounting.
func MeasureSignalling(n int, hopLatency time.Duration, strategy gara.Strategy, trials int) (SignallingSample, error) {
	var out SignallingSample
	w, err := BuildWorld(WorldConfig{
		NumDomains:            n,
		Capacity:              units.Gbps,
		Latency:               hopLatency,
		TrustUserCAEverywhere: strategy != gara.HopByHop,
	})
	if err != nil {
		return out, err
	}
	defer w.Close()
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		return out, err
	}
	defer u.Close()
	api := gara.NewNetworkAPI(w.Topo)

	// Warm the connections so we measure signalling, not dialing, then
	// reset the counters and measure fresh flows.
	warm := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	if res, err := api.Reserve(u, warm, strategy); err != nil || !res.Granted {
		return out, fmt.Errorf("warmup failed: %v %+v", err, res)
	}
	w.Net.ResetCounters()

	var total time.Duration
	for i := 0; i < trials; i++ {
		spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
		start := time.Now()
		res, err := api.Reserve(u, spec, strategy)
		total += time.Since(start)
		if err != nil {
			return out, err
		}
		if !res.Granted {
			return out, fmt.Errorf("trial %d denied: %s", i, res.Reason)
		}
	}
	out.Latency = total / time.Duration(trials)
	out.Messages = w.Net.Messages() / int64(trials)
	return out, nil
}

// RunSignallingComparison reproduces Figures 3 and 5 as a measurement:
// reservation latency and message count for the three strategies as
// the path grows. The paper's prose claim — "source-domain-based
// signalling may be faster than hop-by-hop based signalling, because
// the reservations for each domain can be made in parallel" — shows up
// as the Concurrent column staying flat while HopByHop grows linearly.
func RunSignallingComparison(hopLatency time.Duration, trials int) (*Table, error) {
	t := &Table{
		ID:    "fig3+fig5",
		Title: fmt.Sprintf("Signalling strategies vs path length (one-way hop latency %v)", hopLatency),
		Claim: "source-domain signalling may be faster (parallel per-domain reservations); hop-by-hop needs only neighbour trust",
		Columns: []string{
			"domains",
			"seq latency", "seq msgs",
			"conc latency", "conc msgs",
			"hop-by-hop latency", "hop-by-hop msgs",
		},
	}
	for _, n := range []int{2, 3, 4, 6, 8} {
		row := []string{fmt.Sprintf("%d", n)}
		for _, strat := range []gara.Strategy{gara.Sequential, gara.Concurrent, gara.HopByHop} {
			s, err := MeasureSignalling(n, hopLatency, strat, trials)
			if err != nil {
				return nil, fmt.Errorf("n=%d %v: %w", n, strat, err)
			}
			row = append(row, fmt.Sprintf("%.1fms", float64(s.Latency.Microseconds())/1000), fmt.Sprintf("%d", s.Messages))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"source-domain strategies require every broker to authenticate the user (trust scaling below); hop-by-hop only contacts the first broker",
		"message counts are per reservation over warmed connections",
	)
	return t, nil
}

// RunTrustScaling quantifies the trust-relationship argument of §3:
// the number of (user, broker) authentication relationships each
// approach needs, as users and domains grow.
func RunTrustScaling() *Table {
	t := &Table{
		ID:    "trust-scaling",
		Title: "Authentication relationships required per approach",
		Claim: `"it is difficult to scale since each BB must know about (and be able to authenticate) Alice"`,
		Columns: []string{
			"users", "domains",
			"source-domain (user,BB) pairs",
			"coordinator (RC,BB) pairs",
			"hop-by-hop pairs",
		},
	}
	for _, u := range []int{10, 100, 1000} {
		for _, d := range []int{3, 5, 8} {
			sourcePairs := u * d    // every user known to every broker
			rcPairs := d + u        // RC known to every broker; users known to the RC
			hopPairs := (d - 1) + u // SLA peerings + users known to their home broker only
			t.AddRow(
				fmt.Sprintf("%d", u), fmt.Sprintf("%d", d),
				fmt.Sprintf("%d", sourcePairs),
				fmt.Sprintf("%d", rcPairs),
				fmt.Sprintf("%d", hopPairs),
			)
		}
	}
	t.Notes = append(t.Notes,
		"hop-by-hop pairs = one SLA peering per adjacent domain pair plus each user enrolled at its home domain only",
	)
	return t
}

// RunCoReservation reproduces the Figure 5 coupling of a network
// reservation with a CPU reservation, demonstrating all-or-nothing
// semantics.
func RunCoReservation() (*Table, error) {
	t := &Table{
		ID:    "fig5",
		Title: "Co-reservation of network + CPU via the GARA API (Figure 5)",
		Claim: "the GARA API couples a multi-domain network reservation with a CPU reservation in domain C",
		Columns: []string{
			"scenario", "cpu pool", "network", "outcome", "cpu free after",
		},
	}
	for _, scenario := range []struct {
		label   string
		cpus    units.Bandwidth
		request units.Bandwidth
		netBW   units.Bandwidth
	}{
		{"both fit", 8, 4, 10 * units.Mbps},
		{"cpu exhausted", 2, 4, 10 * units.Mbps},
		{"network exhausted", 8, 4, 10 * units.Gbps},
	} {
		w, err := BuildWorld(WorldConfig{
			NumDomains: 3,
			Capacity:   100 * units.Mbps,
			Pools:      map[string]map[string]units.Bandwidth{"Domain2": {"cpu": scenario.cpus}},
		})
		if err != nil {
			return nil, err
		}
		u, err := w.NewUser("alice", "", nil, nil)
		if err != nil {
			w.Close()
			return nil, err
		}
		api := gara.NewNetworkAPI(w.Topo)
		co := &gara.CoReserver{API: api, Pools: w.Pools["Domain2"]}
		spec := u.NewSpec(SpecOptions{DestDomain: "Domain2", Bandwidth: scenario.netBW})
		_, res, err := co.Reserve(u, gara.CoRequest{Spec: spec, Pools: map[string]units.Bandwidth{"cpu": scenario.request}})
		outcome := "GRANTED"
		switch {
		case err != nil:
			outcome = "DENIED (cpu)"
		case !res.Granted:
			outcome = "DENIED (network)"
		}
		free := w.Pools["Domain2"]["cpu"].Available(spec.Window)
		t.AddRow(scenario.label,
			fmt.Sprintf("%d", scenario.cpus),
			scenario.netBW.String(),
			outcome,
			fmt.Sprintf("%d", free),
		)
		u.Close()
		w.Close()
	}
	t.Notes = append(t.Notes, "on any failure the CPU co-reservation is rolled back (all-or-nothing)")
	return t, nil
}
