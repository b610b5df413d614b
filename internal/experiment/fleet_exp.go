package experiment

import (
	"fmt"
	"time"
)

// RunFleetExperiment runs the scenario fleet and renders it as an
// experiment table for cmd/experiments.
func RunFleetExperiment(cfg FleetConfig) (*Table, error) {
	start := time.Now()
	res, err := RunFleet(cfg)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	t := &Table{
		ID:    "fleet",
		Title: fmt.Sprintf("scenario fleet, %d users × %d domains, seed %d", res.Users, res.Domains, res.Seed),
		Claim: "admission, enforcement and teardown hold their invariants under diurnal load, flash crowds, churn and the misreservation attack at fleet scale",
		Columns: []string{
			"scenario", "grants", "denials", "retries", "cancels",
			"goodput p50/p99/p999 (Mb/s)", "invariants",
		},
	}
	for _, s := range res.Scenarios {
		t.AddRow(
			s.Name,
			fmt.Sprintf("%d", s.Grants),
			fmt.Sprintf("%d", s.Denials),
			fmt.Sprintf("%d", s.Retries),
			fmt.Sprintf("%d", s.Cancels),
			fmt.Sprintf("%.2f / %.2f / %.2f", s.GoodputMbps.P50, s.GoodputMbps.P99, s.GoodputMbps.P999),
			fmt.Sprintf("%d passed", len(s.Invariants)),
		)
		if s.Attack != nil {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"misreservation: honest p50 %.2f→%.2f Mb/s under attack (%.1f%% degradation); attacker p50 %.2f Mb/s defended (bounded by its reservation) vs %.2f Mb/s stolen via aggregate policing",
				s.Attack.HonestDefended.P50, s.Attack.HonestAttacked.P50, s.Attack.DegradationPct,
				s.Attack.AttackerDefended.P50, s.Attack.AttackerAttacked.P50))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("fleet digest %s (seed-reproducible; same seed ⇒ byte-identical)", res.Digest),
		fmt.Sprintf("virtual-time closed loop over the real brokers of a %d-domain World, metered in closed form on the data planes they program; wall clock %.1fs", res.Domains, elapsed.Seconds()))
	return t, nil
}
