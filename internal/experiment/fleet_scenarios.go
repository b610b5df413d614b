package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"e2eqos/internal/units"
)

// The four scenario families. Each builds a fresh engine (a fresh
// World, planes and virtual clock) so scenario digests are independent
// and order-insensitive.

// sessionWithRetry is the closed-loop user: reserve end to end, hold,
// cancel; on denial, back off and retry a bounded number of times.
func (e *fleetEngine) sessionWithRetry(u int, bw units.Bandwidth, hold time.Duration, retries int, r *rng) {
	if b := e.reserve(u, bw, hold, false); b != nil {
		e.holdThenCancel(b, hold)
		return
	}
	if retries <= 0 {
		return
	}
	e.retries++
	_ = e.sim.After(r.Between(time.Second, 10*time.Second), func() {
		e.sessionWithRetry(u, bw, hold, retries-1, r)
	})
}

// runDiurnal models a compressed day: 24 slots whose activity follows
// a sinusoid (night trough, midday peak). Each user independently
// decides per slot whether to hold a reservation, for roughly half to
// one-and-a-half slots, so a slot's activity is about the share of the
// population holding one during it.
func runDiurnal(cfg FleetConfig) (ScenarioResult, error) {
	e, err := newFleetEngine(cfg, "diurnal")
	if err != nil {
		return ScenarioResult{}, err
	}
	defer e.close()
	const slots = 24
	slotDur := 2 * time.Minute
	// The peak slot's activity: the pool's share of the population,
	// times fleetDiurnalOverload.
	peak := fleetDiurnalOverload * float64(e.domains[0].capacity) / (float64(cfg.Users) * float64(fleetPerUserRate))
	for u := 0; u < cfg.Users; u++ {
		r := e.userRNG(u, 1)
		for s := 0; s < slots; s++ {
			// Activity between 2% (trough) and the peak.
			frac := 0.02 + (peak-0.02)*(1+math.Sin(2*math.Pi*float64(s)/slots-math.Pi/2))/2
			if r.Float64() >= frac {
				continue
			}
			start := time.Duration(s)*slotDur + r.Between(0, slotDur)
			hold := r.Between(slotDur/2, slotDur*3/2)
			u := u
			if err := e.sim.Schedule(start, func() {
				e.sessionWithRetry(u, fleetPerUserRate, hold, 2, r)
			}); err != nil {
				return ScenarioResult{}, err
			}
		}
	}
	events := e.sim.Run(slots*slotDur + 15*time.Minute)
	e.drain()
	return e.finish("diurnal", events)
}

// runFlashCrowd lays a 10% baseline load, then hits the brokers with
// 30% of the population reserving within a two-second window: the
// burst runs the pools dry, and the crowd's late arrivals are refused.
func runFlashCrowd(cfg FleetConfig) (ScenarioResult, error) {
	e, err := newFleetEngine(cfg, "flash")
	if err != nil {
		return ScenarioResult{}, err
	}
	defer e.close()
	for u := 0; u < cfg.Users; u++ {
		r := e.userRNG(u, 2)
		if r.Float64() < 0.10 {
			start := r.Between(0, 10*time.Second)
			hold := r.Between(30*time.Second, 50*time.Second)
			u := u
			if err := e.sim.Schedule(start, func() {
				e.sessionWithRetry(u, fleetPerUserRate, hold, 1, r)
			}); err != nil {
				return ScenarioResult{}, err
			}
		}
		if r.Float64() < 0.30 {
			start := 20*time.Second + r.Between(0, 2*time.Second)
			hold := r.Between(10*time.Second, 20*time.Second)
			u := u
			if err := e.sim.Schedule(start, func() {
				e.sessionWithRetry(u, fleetPerUserRate, hold, 0, r)
			}); err != nil {
				return ScenarioResult{}, err
			}
		}
	}
	events := e.sim.Run(3 * time.Minute)
	e.drain()
	return e.finish("flash", events)
}

// runChurn has 5% of the population book and cancel continuously with
// short holds for twelve virtual minutes — the compaction stress: the
// tables must shed dead reservations while admission keeps running.
func runChurn(cfg FleetConfig) (ScenarioResult, error) {
	e, err := newFleetEngine(cfg, "churn")
	if err != nil {
		return ScenarioResult{}, err
	}
	defer e.close()
	churners := cfg.Users / 20
	if churners < 8 {
		churners = min(8, cfg.Users)
	}
	const horizon = 12 * time.Minute
	for u := 0; u < churners; u++ {
		r := e.userRNG(u, 3)
		u := u
		if err := e.sim.Schedule(r.Between(0, 5*time.Second), func() {
			e.churnLoop(u, r, horizon)
		}); err != nil {
			return ScenarioResult{}, err
		}
	}
	events := e.sim.Run(horizon + time.Minute)
	e.drain()
	bounded := e.checkCompactionBounded(e.admitOps)
	res, err := e.finish("churn", events)
	if bounded {
		res.Invariants = append(res.Invariants, "compaction-bounded")
	}
	return res, err
}

// churnLoop books, holds briefly, cancels, pauses, rebooks — until
// the horizon.
func (e *fleetEngine) churnLoop(u int, r *rng, until time.Duration) {
	if e.sim.Now() >= until {
		return
	}
	hold := r.Between(5*time.Second, 30*time.Second)
	gap := r.Between(200*time.Millisecond, 2*time.Second)
	rebook := func() {
		_ = e.sim.After(gap, func() { e.churnLoop(u, r, until) })
	}
	b := e.reserve(u, fleetPerUserRate, hold, false)
	if b == nil {
		rebook()
		return
	}
	_ = e.sim.Schedule(e.sim.Now()+hold, func() {
		e.cancelBooking(b)
		rebook()
	})
}

// runMisreservation replays the paper's Figure 4 at fleet scale: 1%
// of users are attackers booking fleetAttackerOverbook× bandwidth. In the
// defended arm provisioning is end-to-end — attackers reserve hop by
// hop and the destination's aggregate accounts for whatever it
// granted them. In the attack arm they book only in their source
// domain ("Domain C polices traffic based on traffic aggregates, not
// on individual users"), so their premium-marked packets compete with
// honest traffic inside an aggregate sized without them.
func runMisreservation(cfg FleetConfig) (ScenarioResult, error) {
	defRes, defAttack, err := runAttackArm(cfg, true)
	if err != nil {
		return ScenarioResult{}, err
	}
	atkRes, atkAttack, err := runAttackArm(cfg, false)
	if err != nil {
		return ScenarioResult{}, err
	}
	attack := &AttackResult{
		HonestDefended:   defAttack.honest,
		AttackerDefended: defAttack.attacker,
		HonestAttacked:   atkAttack.honest,
		AttackerAttacked: atkAttack.attacker,
	}
	if attack.HonestDefended.P50 > 0 {
		attack.DegradationPct = 100 * (1 - attack.HonestAttacked.P50/attack.HonestDefended.P50)
	}
	// Sanity: source-domain provisioning must actually hurt honest
	// users relative to the defended arm, or the scenario has stopped
	// reproducing the paper's attack.
	if attack.DegradationPct < 1 {
		return ScenarioResult{}, fmt.Errorf("fleet: misreservation attack caused no honest degradation (%.2f%%)", attack.DegradationPct)
	}
	whole := sha256.New()
	fmt.Fprintf(whole, "defended %s\nattack %s\n", defRes.Digest, atkRes.Digest)
	res := ScenarioResult{
		Name:        "misreservation",
		Grants:      defRes.Grants + atkRes.Grants,
		Denials:     defRes.Denials + atkRes.Denials,
		Retries:     defRes.Retries + atkRes.Retries,
		Cancels:     defRes.Cancels + atkRes.Cancels,
		GoodputMbps: defRes.GoodputMbps,
		Attack:      attack,
		Invariants:  append(defRes.Invariants, "attacker-goodput<=reservation", "policer-byte-conservation"),
		Digest:      hex.EncodeToString(whole.Sum(nil)),
		Events:      defRes.Events + atkRes.Events,
	}
	return res, nil
}

// armGoodput carries one arm's measured distributions.
type armGoodput struct {
	honest   Quantiles
	attacker Quantiles
}

// runAttackArm runs one provisioning mode of the misreservation
// scenario and measures premium goodput through the edge markers and
// the destination's aggregate policer over a steady-state window.
func runAttackArm(cfg FleetConfig, defended bool) (ScenarioResult, armGoodput, error) {
	name := "misreservation-attack"
	if defended {
		name = "misreservation-defended"
	}
	e, err := newFleetEngine(cfg, name)
	if err != nil {
		return ScenarioResult{}, armGoodput{}, err
	}
	defer e.close()
	attackers := max(int(fleetAttackerFraction*float64(cfg.Users)), 1)
	attackerBW := fleetAttackerOverbook * fleetPerUserRate
	const (
		joinBy   = 10 * time.Second
		measFrom = 30 * time.Second
		measTo   = 90 * time.Second
		hold     = 2 * measTo
	)
	// Honest users: a quarter of the population holds through the
	// measurement window. Attackers are the first `attackers` ids and
	// are always active.
	for u := 0; u < cfg.Users; u++ {
		r := e.userRNG(u, 4)
		isAttacker := u < attackers
		if !isAttacker && r.Float64() >= 0.25 {
			continue
		}
		start := r.Between(0, joinBy)
		u := u
		if err := e.sim.Schedule(start, func() {
			switch {
			case !isAttacker:
				e.reserve(u, fleetPerUserRate, hold, false)
			case defended:
				// End-to-end provisioning: the attacker must ask every
				// domain, destination included.
				e.reserve(u, attackerBW, hold, false)
			default:
				// Source-domain provisioning: book only the home domain;
				// its broker still programs the edge marker.
				e.reserve(u, attackerBW, hold, true)
			}
		}); err != nil {
			return ScenarioResult{}, armGoodput{}, err
		}
	}
	var arm armGoodput
	// Open the measurement window: consume all pre-window traffic so
	// the per-flow meters sit at their steady state.
	if err := e.sim.Schedule(measFrom, func() {
		for _, b := range e.liveBookings() {
			pre := int64(float64(b.bw.BytesIn(e.sim.Now()-b.grantedAt)) * b.offer)
			e.domains[0].plane.Mark(b.flow, pre, e.sim.Now())
		}
		dest := e.domains[len(e.domains)-1]
		dest.plane.Police(0, e.sim.Now())
	}); err != nil {
		return ScenarioResult{}, armGoodput{}, err
	}
	if err := e.sim.Schedule(measTo, func() {
		arm = e.measureGoodput(attackers, measTo-measFrom, defended)
	}); err != nil {
		return ScenarioResult{}, armGoodput{}, err
	}
	events := e.sim.Run(measTo + time.Minute)
	e.drain()
	res, err := e.finish(name, events)
	return res, arm, err
}

// measureGoodput meters every live flow's window traffic through its
// edge marker, polices the premium sum at the destination aggregate,
// distributes the passed bytes proportionally (aggregate policing is
// flow-blind) and asserts the arm's invariants.
func (e *fleetEngine) measureGoodput(attackers int, window time.Duration, defended bool) armGoodput {
	now := e.sim.Now()
	type flowPremium struct {
		b       *fleetBooking
		premium int64
	}
	var flows []flowPremium
	var totalPremium int64
	for _, b := range e.liveBookings() {
		factor := b.offer
		if b.user < attackers {
			factor = 1.5 // attackers blast over their profile; the edge clips
		}
		offered := int64(float64(b.bw.BytesIn(window)) * factor)
		premium := e.domains[0].plane.Mark(b.flow, offered, now)
		flows = append(flows, flowPremium{b, premium})
		totalPremium += premium
	}
	dest := e.domains[len(e.domains)-1]
	passed := dest.plane.Police(totalPremium, now)
	aggRate := dest.committed
	// Policer byte conservation: the aggregate meter must never pass
	// more than its configured rate over the window plus one bucket.
	budget := aggRate.BytesIn(window) + defaultFleetBucket + 1
	if passed > budget {
		e.violate("policer passed %d bytes, budget %d", passed, budget)
	}
	var honest, attacker []float64
	for _, fp := range flows {
		share := 0.0
		if totalPremium > 0 {
			share = float64(passed) * float64(fp.premium) / float64(totalPremium)
		}
		mbps := share * 8 / window.Seconds() / 1e6
		if fp.b.user < attackers {
			attacker = append(attacker, mbps)
			if defended {
				// The paper's bound: an attacker's premium goodput may
				// not exceed what the destination admitted for it (its
				// reservation rate, plus burst slack).
				bound := float64(fp.b.bw)/1e6*1.02 + float64(defaultFleetBucket)*8/window.Seconds()/1e6
				if mbps > bound {
					e.violate("attacker %s premium goodput %.3f Mb/s exceeds reservation bound %.3f", fp.b.flow, mbps, bound)
				}
			}
		} else {
			honest = append(honest, mbps)
		}
	}
	fmt.Fprintf(e.h, "measure premium %d passed %d agg %d\n", totalPremium, passed, int64(aggRate))
	return armGoodput{honest: quantilesOf(honest), attacker: quantilesOf(attacker)}
}
