package experiment

import (
	"fmt"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/resv"
	"e2eqos/internal/topology"
	"e2eqos/internal/units"
)

// multipathCallTimeout is the multipath experiment's per-hop
// signalling deadline.
const multipathCallTimeout = 2 * time.Second

// multipathCell is one measured scenario of the multipath experiment.
type multipathCell struct {
	outcome  string
	slots    int // granted table entries across the world after settling
	stranded int // slots beyond what the outcome accounts for
	reroutes, skips, splits, splitFails, comps,
	abandoned float64
}

// settleSlots waits for the asynchronous rollback/compensation
// machinery to drain the tables down to the expected slot count, then
// reports what is actually left.
func settleSlots(w *World, want int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		got := 0
		for _, broker := range w.BBs {
			for _, r := range broker.Table().All() {
				if r.Status == resv.Granted {
					got++
				}
			}
		}
		if got <= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// fanWorld builds a Domain0 -> {branches} -> DomainN fan with the
// multipath knobs armed.
func fanWorld(branches int, w WorldConfig) (*World, error) {
	topo, err := topology.Multi(branches, units.Gbps)
	if err != nil {
		return nil, err
	}
	w.Topo = topo
	w.CallTimeout = multipathCallTimeout
	w.Broker.RetryBackoff = 2 * time.Millisecond
	w.EnableObs = true
	return BuildWorld(w)
}

// runMultipathCell runs one scenario: build a world, inject the fault,
// attempt the reservation, read the brokers' own counters back.
func runMultipathCell(branches int, wcfg WorldConfig, wantSlots int,
	inject func(*World) error, bw units.Bandwidth, wantGrant bool) (multipathCell, error) {
	var out multipathCell
	w, err := fanWorld(branches, wcfg)
	if err != nil {
		return out, err
	}
	defer w.Close()
	if inject != nil {
		if err := inject(w); err != nil {
			return out, err
		}
	}
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		return out, err
	}
	defer u.Close()

	res, err := u.ReserveE2E(u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: bw}))
	switch {
	case err != nil:
		out.outcome = "error"
	case res.Granted:
		out.outcome = "granted"
	default:
		out.outcome = "denied"
	}
	if wantGrant && out.outcome != "granted" {
		reason := ""
		if res != nil {
			reason = res.Reason
		}
		return out, fmt.Errorf("expected a grant, got %s (%s / %v)", out.outcome, reason, err)
	}
	if !wantGrant && out.outcome == "granted" {
		return out, fmt.Errorf("expected a denial, got a grant")
	}
	out.slots = settleSlots(w, wantSlots)
	out.stranded = out.slots - wantSlots
	out.reroutes = w.CounterTotal("bb_reroutes_total")
	out.skips = w.CounterTotal("bb_reroute_path_skips_total")
	out.splits = w.CounterTotal("bb_splits_total")
	out.splitFails = w.CounterTotal("bb_split_failures_total")
	out.comps = w.CounterTotal("bb_saga_compensations_total")
	out.abandoned = w.CounterTotal("bb_rollbacks_abandoned_total")
	return out, nil
}

// RunMultipathExp measures the multipath routing layer end to end over
// a fan of edge-disjoint branches: re-route around a dead branch,
// breaker-driven path skipping, and splitting one reservation across
// capacity-constrained branches with atomic rollback on partial
// denial. Every number is re-derived from the brokers' tables and
// metrics, not from the experiment's own bookkeeping.
func RunMultipathExp() (*Table, error) {
	t := &Table{
		ID:    "multipath",
		Title: "Multipath domain routing: re-route, breaker skip, and split across disjoint branches",
		Claim: "a reservation must settle on an alternate disjoint path when a branch dies or its breaker opens, and split across branches when no single path carries it — atomically, with zero stranded bandwidth",
		Columns: []string{
			"scenario", "outcome",
			"reroutes", "path skips", "splits", "split aborts",
			"compensations", "stranded",
		},
	}
	type scenario struct {
		name      string
		branches  int
		wcfg      WorldConfig
		wantSlots int
		inject    func(*World) error
		bw        units.Bandwidth
		grant     bool
	}
	constrained := func(alt units.Bandwidth) WorldConfig {
		return WorldConfig{
			Capacity: 10 * units.Mbps,
			Capacities: map[string]units.Bandwidth{
				"Domain1": 5 * units.Mbps,
				"Domain2": alt,
			},
			Broker: bb.Config{MaxPaths: 2, SplitParts: 2},
		}
	}
	scenarios := []scenario{
		{
			name: "all branches healthy", branches: 3,
			wcfg:      WorldConfig{Broker: bb.Config{MaxPaths: 3}},
			wantSlots: 3, // ingress + primary branch + destination
			bw:        5 * units.Mbps, grant: true,
		},
		{
			name: "primary branch dead mid-signalling", branches: 3,
			wcfg:      WorldConfig{Broker: bb.Config{MaxPaths: 3}},
			wantSlots: 3,
			inject:    func(w *World) error { return w.StopDomain("Domain1") },
			bw:        5 * units.Mbps, grant: true,
		},
		{
			name: "primary breaker forced open", branches: 3,
			wcfg:      WorldConfig{Broker: bb.Config{MaxPaths: 3}},
			wantSlots: 3,
			inject:    func(w *World) error { return w.BBs["Domain0"].TripBreaker("Domain1") },
			bw:        5 * units.Mbps, grant: true,
		},
		{
			name: "split across constrained branches", branches: 2,
			wcfg:      constrained(5 * units.Mbps),
			wantSlots: 5, // ingress + one per branch + two at the destination
			bw:        10 * units.Mbps, grant: true,
		},
		{
			name: "split aborts on partial denial", branches: 2,
			wcfg:      constrained(3 * units.Mbps),
			wantSlots: 0, // atomic rollback leaves nothing booked
			bw:        10 * units.Mbps, grant: false,
		},
	}
	for _, s := range scenarios {
		c, err := runMultipathCell(s.branches, s.wcfg, s.wantSlots, s.inject, s.bw, s.grant)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		stranded := fmt.Sprintf("%d", c.stranded)
		if c.stranded <= 0 && c.abandoned == 0 {
			stranded = "0 (clean)"
		}
		t.AddRow(
			s.name, c.outcome,
			fmt.Sprintf("%.0f", c.reroutes),
			fmt.Sprintf("%.0f", c.skips),
			fmt.Sprintf("%.0f", c.splits),
			fmt.Sprintf("%.0f", c.splitFails),
			fmt.Sprintf("%.0f", c.comps),
			stranded,
		)
	}
	t.Notes = append(t.Notes,
		"the fan topology gives every (source, destination) pair edge-disjoint branches; the ingress tries them in cost order and pins the chosen path onto the forwarded RAR",
		"a dead branch surfaces as a transport failure mid-signalling and re-routes; an open breaker skips the path before any attempt",
		"the split scenarios request 10 Mb/s over 5 Mb/s branches: no single path carries it, so the ingress places per-path children whose shares sum exactly to the signed bandwidth",
		"split aborts run through the saga layer: the granted sibling is withdrawn and the ingress admission released by journaled compensations — stranded counts any granted table entry the outcome does not account for",
	)
	return t, nil
}
