package experiment

import (
	"slices"
	"sync"
	"testing"
)

// smokeFleetConfig is the scaled-down tier: small enough to finish in
// seconds on real brokers, big enough that every scenario exercises
// its denial, retry and churn paths. The race build runs a smaller
// population, whose digests are not pinned.
func smokeFleetConfig() FleetConfig {
	if raceEnabled {
		return FleetConfig{Users: 500, Seed: 1}
	}
	return FleetConfig{Users: 2_000, Seed: 1}
}

// smoke is the one smoke-tier run the fleet tests share.
var smoke struct {
	once sync.Once
	res  *FleetResult
	err  error
}

// smokeScenario returns the named scenario of the shared smoke run.
func smokeScenario(t *testing.T, name string) ScenarioResult {
	t.Helper()
	smoke.once.Do(func() { smoke.res, smoke.err = RunFleet(smokeFleetConfig()) })
	if smoke.err != nil {
		t.Fatalf("RunFleet: %v", smoke.err)
	}
	for _, s := range smoke.res.Scenarios {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no %s scenario in %d", name, len(smoke.res.Scenarios))
	return ScenarioResult{}
}

// TestFleetSmoke runs all four scenario families at smoke scale,
// requires every cross-cutting invariant to pass, and requires each
// scenario to exercise the path it exists for.
func TestFleetSmoke(t *testing.T) {
	wantChecks := map[string]int{
		"diurnal": 4, "flash": 4, "churn": 5, "misreservation": 6,
	}
	for name, want := range wantChecks {
		s := smokeScenario(t, name)
		if s.Grants == 0 {
			t.Errorf("%s: no grants", s.Name)
		}
		if got := len(s.Invariants); got < want {
			t.Errorf("%s: %d invariant checks passed, want >= %d (%v)", s.Name, got, want, s.Invariants)
		}
		if s.Digest == "" {
			t.Errorf("%s: empty digest", s.Name)
		}
	}
	if s := smokeScenario(t, "diurnal"); s.Retries == 0 {
		t.Error("diurnal: no retries; the peak never ran the pools dry")
	}
	if s := smokeScenario(t, "flash"); s.Denials == 0 {
		t.Error("flash: no denials; the crowd never ran the pools dry")
	}
	if s := smokeScenario(t, "churn"); !slices.Contains(s.Invariants, "compaction-bounded") || s.Grants*fleetDomains <= 1000 {
		t.Errorf("churn: %d admissions, invariants %v; want compaction-bounded over more than 1000", s.Grants*fleetDomains, s.Invariants)
	}
	if s := smokeScenario(t, "misreservation"); s.Attack == nil || s.Attack.DegradationPct < 1 {
		t.Errorf("misreservation: attack %+v, want an honest degradation of at least 1%%", s.Attack)
	}
}

// TestFleetSmokeDigestsPinned pins the smoke tier's digests: grants,
// denials, cancels and final table state of every scenario. They were
// recorded when the fleet first drove real brokers, one table per
// domain, and diurnal's once more when its peak was sized against the
// pool rather than the population, so a change to the brokers or the
// fleet that moves one verdict, handle or table entry fails here. The
// race build runs another population, so the pin holds in the normal
// build only.
func TestFleetSmokeDigestsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the pinned digests are the normal build's population")
	}
	want := map[string]string{
		"diurnal":        "80f82f375c6508383e38fc039ebea89eaeec37392fd98af2c21fd116444b8739",
		"flash":          "d00c299f52a882049f8fd8512683b28ca4638efc55856113932472b406beca58",
		"churn":          "c10893b1949900ab2c5dd704eacaacea3b5f561c3cf9255e1b35008623c5ce2b",
		"misreservation": "e75e53957659b26aea1fd12ef00cdaaf6dc20f18884de684e573b23b757d3f9b",
	}
	for name, pin := range want {
		if got := smokeScenario(t, name).Digest; got != pin {
			t.Errorf("%s digest %s, pinned %s", name, got, pin)
		}
	}
	if len(smoke.res.Scenarios) != len(want) {
		t.Errorf("got %d scenarios, pinned %d", len(smoke.res.Scenarios), len(want))
	}
	const fleet = "4c527efc9887d1c5972694b9d9f11269465e060938887ac48a144c5a6ebb6707"
	if smoke.res.Digest != fleet {
		t.Errorf("fleet digest %s, pinned %s", smoke.res.Digest, fleet)
	}
}

// TestFleetSeededDeterminism is the reproducibility contract: two
// runs with the same seed must produce byte-identical digests, and a
// different seed must not.
func TestFleetSeededDeterminism(t *testing.T) {
	cfg := FleetConfig{Users: 200, Seed: 1}
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
