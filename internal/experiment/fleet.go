// Scenario fleet: a deterministic, seed-reproducible closed-loop
// driver that exercises the broker's admission machinery and
// data-plane metering at 10^5–10^6 simulated users. The fleet is the
// standing regression harness for scale work: every scenario runs
// real resv.Table admission (sharded into per-domain aggregates, the
// way a deployment splits its premium pool across ingress points),
// closed-form token-bucket metering (the fake backend's Mark and
// Police, which no broker calls), and a modelled signalling path —
// per-hop latency plus a FIFO single-server queue per broker — in dsim
// virtual time. The full-crypto signalling
// path measured in BENCH_concurrency.json runs at ~4.5 ms per
// reservation; at 10^5 users that is hours of wall clock, so the fleet
// models the path and drives the real decision logic under it.
//
// Everything is deterministic: virtual time starts at a fixed epoch,
// every behaviour draw comes from per-user splitmix64 streams seeded
// from FleetConfig.Seed, no Go map is iterated for a scheduling
// decision, and each scenario folds its grants, denials, cancels and
// final table snapshots into a SHA-256 digest — two runs with the same
// seed must produce byte-identical digests.
package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"time"

	"e2eqos/internal/dataplane/fake"
	"e2eqos/internal/dsim"
	"e2eqos/internal/identity"
	"e2eqos/internal/resv"
	"e2eqos/internal/sla"
	"e2eqos/internal/units"
)

// fleetEpoch is the fixed virtual wall-clock origin. Reservation
// windows, table compaction horizons and admission stamps all derive
// from it plus dsim virtual time; nothing reads the real date.
var fleetEpoch = time.Date(2001, time.June, 4, 0, 0, 0, 0, time.UTC)

// fleetWindowSlack pads every reservation window past its planned
// cancel so the closed-loop cancel always precedes window expiry.
const fleetWindowSlack = 2 * time.Minute

// FleetConfig parameterises the scenario fleet.
type FleetConfig struct {
	// Users is the simulated population.
	Users int
	// Seed drives every RNG stream.
	Seed uint64
}

// The modelled fleet's constants.
const (
	// fleetDomains is the signalling chain length: source, transit,
	// destination.
	fleetDomains = 3
	// fleetPerUserRate is each honest reservation's bandwidth.
	fleetPerUserRate = units.Mbps
	// fleetCapacityFactor sizes each domain's premium aggregate as a
	// fraction of Users×fleetPerUserRate: diurnal peaks run the pool
	// hot without saturating it.
	fleetCapacityFactor = 0.35
	// fleetHopLatency is the modelled one-way signalling latency per
	// hop, matching BENCH_concurrency.json's setup.
	fleetHopLatency = 2 * time.Millisecond
	// fleetServiceTime is the modelled per-request broker occupancy;
	// each broker is a FIFO single server, which is what turns flash
	// crowds into grant-latency tails.
	fleetServiceTime = 50 * time.Microsecond
	// fleetAttackerFraction is the share of users that misreserve in
	// the misreservation scenario.
	fleetAttackerFraction = 0.01
	// fleetAttackerOverbook is how much bandwidth an attacker books in
	// its source domain relative to fleetPerUserRate: misbooking is
	// cheap when only the source domain checks.
	fleetAttackerOverbook = 10
)

// fleetAggregates is how many admission shards each domain's capacity
// is split into, the per-ingress aggregate tables a deployment would
// run: users/256 clamped to [16, 4096], which bounds the per-admit edge
// scan to a few hundred reservations.
func fleetAggregates(users int) int {
	return min(max(users/256, 16), 4096)
}

// Quantiles is a p50/p99/p999 summary of one distribution.
type Quantiles struct {
	P50, P99, P999 float64
}

// quantilesOf computes exact order-statistic quantiles (sorting a
// copy); exact beats sketched here because the values feed digests.
func quantilesOf(samples []float64) Quantiles {
	if len(samples) == 0 {
		return Quantiles{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return Quantiles{P50: at(0.50), P99: at(0.99), P999: at(0.999)}
}

// AttackResult compares honest and attacker outcomes across the two
// provisioning modes of the misreservation scenario.
type AttackResult struct {
	// HonestDefended / HonestAttacked are honest users' premium
	// goodput (Mb/s) under end-to-end and source-domain provisioning.
	HonestDefended Quantiles
	HonestAttacked Quantiles
	// AttackerDefended / AttackerAttacked are the attackers' premium
	// goodput (Mb/s) in each mode.
	AttackerDefended Quantiles
	AttackerAttacked Quantiles
	// DegradationPct is the median honest goodput loss under attack.
	DegradationPct float64
}

// ScenarioResult is one scenario's measured outcome.
type ScenarioResult struct {
	Name    string
	Grants  int64
	Denials int64
	Retries int64
	Cancels int64
	// GrantLatencyMs is the end-to-end reserve latency distribution
	// (modelled hops + queueing + service) over granted requests.
	GrantLatencyMs Quantiles
	// GoodputMbps is the per-hold premium goodput distribution through
	// the edge marker.
	GoodputMbps Quantiles
	// Attack is set by the misreservation scenario only.
	Attack *AttackResult `json:",omitempty"`
	// Invariants lists the cross-cutting checks that passed.
	Invariants []string
	// Digest is the scenario's SHA-256 over grants, denials, cancels
	// and final table snapshots, in settle order.
	Digest string
	// Events is how many dsim events the scenario processed.
	Events int
}

// FleetResult is the full fleet run.
type FleetResult struct {
	Users     int
	Domains   int
	Seed      uint64
	Scenarios []ScenarioResult
	// Digest chains the scenario digests: the whole run's identity.
	Digest string
}

// fleetDomain is one domain of the modelled chain: its admission
// shards, its data plane, its broker's FIFO queue and the running
// committed aggregate the broker would push to its policer.
type fleetDomain struct {
	name      string
	capacity  units.Bandwidth
	shards    []*resv.Table
	plane     *fake.Plane
	busyUntil time.Duration
	committed units.Bandwidth
}

// fleetBooking is one live reservation in the engine's ledger.
type fleetBooking struct {
	flow      string
	user      int
	bw        units.Bandwidth
	handles   []string
	path      []int
	grantedAt time.Duration
	offer     float64
	cancelled bool
}

// fleetEngine drives one scenario: fresh tables, planes and virtual
// clock per scenario so digests are independent.
type fleetEngine struct {
	cfg       FleetConfig
	sim       *dsim.Sim
	domains   []*fleetDomain
	bookings  map[string]*fleetBooking
	userShard []int
	userOffer []float64

	latencies  []float64 // ms, granted reserves
	goodputs   []float64 // Mb/s, completed holds
	grants     int64
	denials    int64
	retries    int64
	cancels    int64
	admitOps   int64 // successful table admissions, for compaction bounds
	drained    bool
	violations []string
	h          hash.Hash
	seq        int64
}

func newFleetEngine(cfg FleetConfig, scenario string) *fleetEngine {
	e := &fleetEngine{
		cfg:      cfg,
		sim:      dsim.New(),
		bookings: make(map[string]*fleetBooking),
		h:        sha256.New(),
	}
	fmt.Fprintf(e.h, "scenario %s seed %d users %d\n", scenario, cfg.Seed, cfg.Users)
	aggregates := fleetAggregates(cfg.Users)
	capacity := units.Bandwidth(fleetCapacityFactor * float64(cfg.Users) * float64(fleetPerUserRate))
	perShard := capacity / units.Bandwidth(aggregates)
	if perShard < 4*fleetPerUserRate {
		perShard = 4 * fleetPerUserRate // tiny smoke configs still admit
	}
	clock := func() time.Time { return fleetEpoch.Add(e.sim.Now()) }
	for d := 0; d < fleetDomains; d++ {
		dom := &fleetDomain{
			name:     fmt.Sprintf("d%d", d),
			capacity: perShard * units.Bandwidth(aggregates),
			plane:    fake.New(),
		}
		for a := 0; a < aggregates; a++ {
			t, err := resv.NewTable(fmt.Sprintf("d%da%d", d, a), perShard)
			if err != nil {
				panic(err) // capacity is positive by construction
			}
			t.SetClock(clock)
			dom.shards = append(dom.shards, t)
		}
		e.domains = append(e.domains, dom)
	}
	// Per-user statics from dedicated streams: the shard a user's
	// reservations land in, and how hard the user drives its profile.
	e.userShard = make([]int, cfg.Users)
	e.userOffer = make([]float64, cfg.Users)
	shardRNG := newRNG(cfg.Seed, 0xA11)
	offerRNG := newRNG(cfg.Seed, 0xB22)
	for u := 0; u < cfg.Users; u++ {
		e.userShard[u] = shardRNG.Intn(aggregates)
		e.userOffer[u] = 0.70 + 0.55*offerRNG.Float64()
	}
	return e
}

// userRNG returns user u's private behaviour stream for a scenario
// phase, independent of every other user's.
func (e *fleetEngine) userRNG(u int, phase uint64) *rng {
	return newRNG(e.cfg.Seed, uint64(u)<<8|phase)
}

// at converts virtual sim time to virtual wall time.
func (e *fleetEngine) at(t time.Duration) time.Time { return fleetEpoch.Add(t) }

func (e *fleetEngine) violate(format string, args ...any) {
	if len(e.violations) < 32 {
		e.violations = append(e.violations, fmt.Sprintf(format, args...))
	}
}

// traverse models one signalling pass over the path: per-hop latency
// plus FIFO queueing plus service at each broker. It returns the
// virtual time the last hop finished processing.
func (e *fleetEngine) traverse(from time.Duration, path []int, visit func(d *fleetDomain, i int) bool) time.Duration {
	arrival := from
	for i, di := range path {
		d := e.domains[di]
		arrival += fleetHopLatency
		if d.busyUntil > arrival {
			arrival = d.busyUntil
		}
		arrival += fleetServiceTime
		d.busyUntil = arrival
		if visit != nil && !visit(d, i) {
			return arrival
		}
	}
	return arrival
}

// reserve runs one closed-loop reservation attempt across path. On
// grant it installs the edge profile, bumps each domain's committed
// aggregate and returns the booking; on denial it rolls back partial
// admissions hop by hop and returns nil.
func (e *fleetEngine) reserve(user int, bw units.Bandwidth, hold time.Duration, path []int) *fleetBooking {
	t := e.sim.Now()
	win := units.NewWindow(e.at(t), hold+fleetWindowSlack)
	e.seq++
	flow := fmt.Sprintf("u%d.%d", user, e.seq)
	dn := identity.DN("fleet:" + flow)
	var handles []string
	deniedAt := -1
	done := e.traverse(t, path, func(d *fleetDomain, i int) bool {
		shard := d.shards[e.userShard[user]]
		r, err := shard.Admit(resv.AdmitRequest{
			User:      dn,
			SrcHost:   flow,
			DstHost:   d.name,
			Bandwidth: bw,
			Window:    win,
		})
		if err != nil {
			deniedAt = i
			return false
		}
		handles = append(handles, r.Handle)
		e.admitOps++
		return true
	})
	latency := done + fleetHopLatency*time.Duration(len(path)) - t
	if deniedAt >= 0 {
		// Hop-by-hop rollback of the partial chain, most recent first.
		for i := len(handles) - 1; i >= 0; i-- {
			d := e.domains[path[i]]
			if err := d.shards[e.userShard[user]].Cancel(handles[i]); err != nil {
				e.violate("rollback %s at %s: %v", flow, d.name, err)
			}
		}
		e.denials++
		fmt.Fprintf(e.h, "deny %s %s %d\n", flow, e.domains[path[deniedAt]].name, latency)
		return nil
	}
	e.grants++
	e.latencies = append(e.latencies, float64(latency)/float64(time.Millisecond))
	b := &fleetBooking{
		flow:      flow,
		user:      user,
		bw:        bw,
		handles:   handles,
		path:      append([]int(nil), path...),
		grantedAt: done,
		offer:     e.userOffer[user],
	}
	e.bookings[flow] = b
	src := e.domains[path[0]]
	src.plane.InstallProfile(flow, sla.TrafficProfile{Rate: bw, BucketBytes: defaultFleetBucket})
	src.plane.Mark(flow, 0, done) // open the marking window at grant
	for _, di := range path {
		d := e.domains[di]
		d.committed += bw
		if d.committed > d.capacity {
			e.violate("domain %s committed %v exceeds capacity %v", d.name, d.committed, d.capacity)
		}
		d.plane.SetAggregate(sla.TrafficProfile{Rate: d.committed, BucketBytes: defaultFleetBucket})
	}
	fmt.Fprintf(e.h, "grant %s %v %d %d\n", flow, bw, latency, done)
	return b
}

// defaultFleetBucket matches the broker's default profile burst.
const defaultFleetBucket = 30_000

// cancelBooking tears one booking down along its path (cancel
// signalling occupies the same broker queues) and folds the hold's
// measured goodput into the distribution.
func (e *fleetEngine) cancelBooking(b *fleetBooking) {
	if b == nil || b.cancelled {
		return
	}
	b.cancelled = true
	t := e.sim.Now()
	e.traverse(t, b.path, func(d *fleetDomain, i int) bool {
		if err := d.shards[e.userShard[b.user]].Cancel(b.handles[i]); err != nil {
			e.violate("cancel %s at %s: %v", b.flow, d.name, err)
		}
		d.committed -= b.bw
		agg := d.committed
		if agg < 0 {
			e.violate("domain %s committed went negative", d.name)
			agg = 0
		}
		rate := agg
		if rate <= 0 {
			rate = 1 // closed policer
		}
		d.plane.SetAggregate(sla.TrafficProfile{Rate: rate, BucketBytes: defaultFleetBucket})
		return true
	})
	e.cancels++
	hold := t - b.grantedAt
	src := e.domains[b.path[0]]
	if hold > 0 {
		offered := int64(float64(b.bw.BytesIn(hold)) * b.offer)
		premium := src.plane.Mark(b.flow, offered, t)
		e.goodputs = append(e.goodputs, float64(premium*8)/hold.Seconds()/1e6)
	}
	src.plane.RemoveProfile(b.flow)
	fmt.Fprintf(e.h, "cancel %s %d\n", b.flow, t)
}

// holdThenCancel schedules the closed-loop cancel for a grant.
func (e *fleetEngine) holdThenCancel(b *fleetBooking, hold time.Duration) {
	if b == nil {
		return
	}
	_ = e.sim.Schedule(e.sim.Now()+hold, func() { e.cancelBooking(b) })
}

// drain cancels every live booking immediately (scenario teardown).
func (e *fleetEngine) drain() {
	flows := make([]string, 0, len(e.bookings))
	for f, b := range e.bookings {
		if !b.cancelled {
			flows = append(flows, f)
		}
	}
	sort.Strings(flows)
	for _, f := range flows {
		e.cancelBooking(e.bookings[f])
	}
	e.drained = true
}

// finish runs the invariant battery, folds final table snapshots into
// the digest and assembles the scenario result.
func (e *fleetEngine) finish(name string, events int) (ScenarioResult, error) {
	checks := e.checkInvariants()
	for _, d := range e.domains {
		for _, shard := range d.shards {
			snap, err := shard.Snapshot()
			if err != nil {
				return ScenarioResult{}, fmt.Errorf("fleet: snapshot %s: %w", shard.Name(), err)
			}
			e.h.Write(snap)
		}
		cs := d.plane.ClassStats()
		// The middle column was a best-effort byte count the fake plane
		// never meters; it stays a literal 0 so the pinned digests hold.
		fmt.Fprintf(e.h, "plane %s %d 0 %d\n", d.name, cs.PremiumBytes, cs.ExcessPremiumBytes)
	}
	res := ScenarioResult{
		Name:           name,
		Grants:         e.grants,
		Denials:        e.denials,
		Retries:        e.retries,
		Cancels:        e.cancels,
		GrantLatencyMs: quantilesOf(e.latencies),
		GoodputMbps:    quantilesOf(e.goodputs),
		Invariants:     checks,
		Digest:         hex.EncodeToString(e.h.Sum(nil)),
		Events:         events,
	}
	if len(e.violations) > 0 {
		return res, fmt.Errorf("fleet: scenario %s violated invariants: %v", name, e.violations)
	}
	return res, nil
}

// RunFleet runs the four scenarios and returns their results. Any
// invariant violation fails the run.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	out := &FleetResult{Users: cfg.Users, Domains: fleetDomains, Seed: cfg.Seed}
	whole := sha256.New()
	for _, run := range []func(FleetConfig) (ScenarioResult, error){runDiurnal, runFlashCrowd, runChurn, runMisreservation} {
		res, err := run(cfg)
		if err != nil {
			return nil, err
		}
		out.Scenarios = append(out.Scenarios, res)
		fmt.Fprintf(whole, "%s %s\n", res.Name, res.Digest)
	}
	out.Digest = hex.EncodeToString(whole.Sum(nil))
	return out, nil
}
