// Quickstart: build a three-domain testbed in-process, make an
// end-to-end hop-by-hop network reservation as Alice, inspect the
// signed per-domain approvals, and cancel.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

func main() {
	// One call builds: a CA, broker, policy server and reservation
	// table per domain, SLAs on each peering, and an in-memory
	// signalling network with 2ms one-way latency.
	world, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 3,
		Labels:     []string{"DomainA", "DomainB", "DomainC"},
		Capacity:   100 * units.Mbps,
		Latency:    2 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer world.Close()

	// Alice lives in DomainA. Only her home domain can authenticate
	// her — the hop-by-hop protocol carries her identity downstream.
	alice, err := world.NewUser("Alice", "DomainA", nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer alice.Close()

	spec := alice.NewSpec(experiment.SpecOptions{
		DestDomain: "DomainC",
		Bandwidth:  10 * units.Mbps,
	})
	fmt.Printf("requesting %v from %s to %s (%s)\n",
		spec.Bandwidth, spec.SourceDomain, spec.DestDomain, spec.RARID)

	res, err := alice.ReserveE2E(spec)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Granted {
		log.Fatalf("denied: %s", res.Reason)
	}
	fmt.Println("GRANTED")
	stmts, err := signalling.Statements(res.Approvals)
	if err != nil {
		log.Fatal(err)
	}
	for _, claims := range stmts {
		fmt.Printf("granted: statement by %s over %d claims\n", claims[0].Domain, len(claims))
		for _, c := range claims {
			fmt.Printf("  %-8s bb=%s handle=%s\n", c.Domain, c.BBDN, c.Handle)
		}
	}
	if err := world.VerifyApprovals(res); err != nil {
		log.Fatalf("grant statement check: %v", err)
	}
	fmt.Println("grant statement verified")

	for _, dom := range world.Domains {
		committed := world.BBs[dom].Table().CommittedAt(spec.Window.Start.Add(time.Minute))
		fmt.Printf("  %s committed: %v\n", dom, committed)
	}

	if err := alice.Cancel("DomainA", spec.RARID); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cancelled; capacity released in every domain")
}
