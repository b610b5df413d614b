package experiment

import (
	"testing"
	"time"
)

// smokeFleetConfig is the scaled-down tier that runs under -race in
// make verify: small enough to finish in seconds, big enough that
// every scenario exercises denial, retry and churn paths.
func smokeFleetConfig() FleetConfig {
	return FleetConfig{Users: 2_000, Seed: 1}
}

// smokeScenario runs the smoke tier and returns the named scenario.
func smokeScenario(t *testing.T, name string) ScenarioResult {
	t.Helper()
	res, err := RunFleet(smokeFleetConfig())
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	for _, s := range res.Scenarios {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no %s scenario in %d", name, len(res.Scenarios))
	return ScenarioResult{}
}

// TestFleetSmoke runs all four scenario families at smoke scale and
// requires every cross-cutting invariant to pass.
func TestFleetSmoke(t *testing.T) {
	res, err := RunFleet(smokeFleetConfig())
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if len(res.Scenarios) != 4 {
		t.Fatalf("got %d scenarios, want 4", len(res.Scenarios))
	}
	wantChecks := map[string]int{
		"diurnal": 4, "flash": 4, "churn": 5, "misreservation": 6,
	}
	for _, s := range res.Scenarios {
		if s.Grants == 0 {
			t.Errorf("%s: no grants", s.Name)
		}
		if got := len(s.Invariants); got < wantChecks[s.Name] {
			t.Errorf("%s: %d invariant checks passed, want >= %d (%v)", s.Name, got, wantChecks[s.Name], s.Invariants)
		}
		if s.GrantLatencyMs.P50 <= 0 {
			t.Errorf("%s: empty grant-latency distribution: %+v", s.Name, s.GrantLatencyMs)
		}
		if s.Digest == "" {
			t.Errorf("%s: empty digest", s.Name)
		}
	}
}

// TestFleetSmokeDigestsPinned pins the smoke tier's digests — grants,
// denials, cancels and final table snapshots of every scenario. They
// were recorded at commit c0f7e73, when resv.Table still answered every
// admission with a sort-and-sweep over the map, so a change to the
// table that moves one verdict, handle or snapshot byte fails here.
func TestFleetSmokeDigestsPinned(t *testing.T) {
	res, err := RunFleet(smokeFleetConfig())
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	want := map[string]string{
		"diurnal":        "c5334bbee032b7da8e3e13d0bedd613fae98d2d7ecbec05fb8debf6207de2734",
		"flash":          "ea1961b1622fe6aca22ef3e3e7275788abbaa6fe1b31e3d6fd14445148bad45e",
		"churn":          "a1f3bd9f06dc52bf27aac00a08df8414c5112be4ed7e01ed1447e3a7468a028a",
		"misreservation": "983c959ff29d96564a40fef27b3fa72c2c8ef1641e110a66fd036791f1d4fc8f",
	}
	for _, s := range res.Scenarios {
		if s.Digest != want[s.Name] {
			t.Errorf("%s digest %s, pinned %s", s.Name, s.Digest, want[s.Name])
		}
	}
	if len(res.Scenarios) != len(want) {
		t.Errorf("got %d scenarios, pinned %d", len(res.Scenarios), len(want))
	}
	const fleet = "b0768b99380ce9954450599e0cf7928ba7dff0627936a2673e1b3c7ce773eb2e"
	if res.Digest != fleet {
		t.Errorf("fleet digest %s, pinned %s", res.Digest, fleet)
	}
}

// TestFleetSeededDeterminism is the reproducibility contract: two
// runs with the same seed must produce byte-identical digests, and a
// different seed must not.
func TestFleetSeededDeterminism(t *testing.T) {
	cfg := smokeFleetConfig()
	cfg.Users = 800
	a, err := RunFleet(cfg)
	if err != nil {
		t.Fatalf("run a: %v", err)
	}
	b, err := RunFleet(cfg)
	if err != nil {
		t.Fatalf("run b: %v", err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same seed, different fleet digests:\n  a %s\n  b %s", a.Digest, b.Digest)
	}
	for i := range a.Scenarios {
		if a.Scenarios[i].Digest != b.Scenarios[i].Digest {
			t.Errorf("scenario %s digest drifted across same-seed runs", a.Scenarios[i].Name)
		}
		if a.Scenarios[i].Grants != b.Scenarios[i].Grants {
			t.Errorf("scenario %s grants drifted: %d vs %d", a.Scenarios[i].Name, a.Scenarios[i].Grants, b.Scenarios[i].Grants)
		}
	}
	cfg.Seed = 2
	c, err := RunFleet(cfg)
	if err != nil {
		t.Fatalf("run c: %v", err)
	}
	if c.Digest == a.Digest {
		t.Fatalf("different seeds produced identical digests")
	}
}

// TestFleetFlashCrowdQueueing checks the modelled FIFO broker turns a
// flash crowd into a real latency tail: p99 must exceed the
// no-queueing floor of hops × (2×latency + service).
func TestFleetFlashCrowdQueueing(t *testing.T) {
	s := smokeScenario(t, "flash")
	floor := float64(fleetDomains*(2*fleetHopLatency+fleetServiceTime)) / float64(time.Millisecond)
	if s.GrantLatencyMs.P99 <= floor {
		t.Errorf("flash p99 %.3f ms not above no-queue floor %.3f ms", s.GrantLatencyMs.P99, floor)
	}
	if s.GrantLatencyMs.P999 < s.GrantLatencyMs.P99 || s.GrantLatencyMs.P99 < s.GrantLatencyMs.P50 {
		t.Errorf("quantiles not monotone: %+v", s.GrantLatencyMs)
	}
}

// TestFleetMisreservationAttack checks the scenario reproduces the
// paper's asymmetry: honest goodput degrades under source-domain
// provisioning and attackers stay bounded when provisioning is
// end-to-end.
func TestFleetMisreservationAttack(t *testing.T) {
	atk := smokeScenario(t, "misreservation").Attack
	if atk == nil {
		t.Fatal("misreservation result missing Attack")
	}
	if atk.DegradationPct < 1 {
		t.Errorf("honest degradation %.2f%%, want >= 1%%", atk.DegradationPct)
	}
	if atk.HonestAttacked.P50 >= atk.HonestDefended.P50 {
		t.Errorf("honest p50 under attack (%.3f) not below defended (%.3f)", atk.HonestAttacked.P50, atk.HonestDefended.P50)
	}
	// In the attack arm the destination never admitted the attackers at
	// all, yet aggregate policing still hands them several honest
	// users' worth of premium — that is the theft the paper describes.
	if atk.AttackerAttacked.P50 <= 2.0 {
		t.Errorf("attacker p50 under attack %.3f Mb/s, want well above an honest 1 Mb/s share", atk.AttackerAttacked.P50)
	}
}
