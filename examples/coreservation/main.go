// Co-reservation: Figure 5/6 of the paper — couple a multi-domain
// network reservation with a CPU reservation in the destination
// domain through the uniform GARA API, with all-or-nothing semantics
// and a destination policy that *requires* the CPU link.
//
//	go run ./examples/coreservation
package main

import (
	"fmt"
	"log"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/gara"
	"e2eqos/internal/policy"
	"e2eqos/internal/units"
)

func main() {
	world, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 3,
		Labels:     []string{"DomainA", "DomainB", "DomainC"},
		Capacity:   100 * units.Mbps,
		Policies: map[string]*policy.Policy{
			// Figure 6's destination policy: >= 5 Mb/s needs an ESnet
			// capability AND a valid CPU reservation.
			"DomainC": policy.Figure6PolicyC,
		},
		Pools: map[string]map[string]units.Bandwidth{"DomainC": {"cpu": 16}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	// Alice grid-logs-in at the ESnet CAS and receives a capability
	// certificate over a fresh proxy key.
	alice, err := world.NewUser("Alice", "DomainA", []string{"network-reservation"}, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer alice.Close()

	api := gara.NewNetworkAPI(world.Topo)
	cpus := world.Pools["DomainC"]["cpu"]
	co := &gara.CoReserver{API: api, Pools: world.Pools["DomainC"]}
	four := map[string]units.Bandwidth{"cpu": 4}

	// Without the CPU co-reservation DomainC denies the 10 Mb/s flow.
	bare := alice.NewSpec(experiment.SpecOptions{DestDomain: "DomainC", Bandwidth: 10 * units.Mbps})
	res, err := alice.ReserveE2E(bare)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network-only request: granted=%t (%s)\n", res.Granted, res.Reason)

	// The GARA co-reservation acquires 4 CPUs first, links the handle
	// into the RAR, and retries: every policy is satisfied.
	spec := alice.NewSpec(experiment.SpecOptions{DestDomain: "DomainC", Bandwidth: 10 * units.Mbps})
	handles, res, err := co.Reserve(alice, gara.CoRequest{Spec: spec, Pools: four})
	if err != nil {
		log.Fatal(err)
	}
	if !res.Granted {
		log.Fatalf("co-reservation denied: %s", res.Reason)
	}
	fmt.Println("co-reservation granted; uniform GARA handles:")
	for _, h := range handles {
		fmt.Printf("  %s\n", h)
	}
	fmt.Printf("CPUs free at DomainC during the window: %d of 16\n",
		cpus.Available(spec.Window))

	// All-or-nothing: an impossible network request releases the CPUs.
	big := alice.NewSpec(experiment.SpecOptions{DestDomain: "DomainC", Bandwidth: 10 * units.Gbps})
	start := time.Now()
	_, res2, err := co.Reserve(alice, gara.CoRequest{Spec: big, Pools: four})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("oversized request: granted=%t in %v; CPUs free again: %d\n",
		res2.Granted, time.Since(start).Round(time.Millisecond),
		cpus.Available(big.Window))
}
