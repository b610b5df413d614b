// Scenario fleet: a deterministic, seed-reproducible closed-loop
// driver that puts 10^5 simulated users on the real brokers of a
// 3-domain World. Every reservation, refusal and cancel is a broker's,
// asked for through experiment.User; the fleet schedules the users in
// dsim virtual time, meters their traffic in closed form through the
// data planes the brokers program (Mark and Police, which no broker
// calls), and checks its own ledger against the brokers' reservation
// tables after every scenario.
//
// Everything the fleet digests is deterministic: the brokers read a
// clock that is the run's start instant plus dsim's virtual offset,
// every behaviour draw comes from per-user splitmix64 streams seeded
// from FleetConfig.Seed, no Go map is iterated for a scheduling
// decision, and only one broker call is in flight at a time. Each
// scenario folds its grants, denials, cancels and final table state
// into a SHA-256 digest, with every instant taken relative to the
// start, so two runs with the same seed produce byte-identical
// digests whatever the date.
package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"e2eqos/internal/dataplane/netsimdp"
	"e2eqos/internal/dsim"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

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

// The fleet's constants.
const (
	// fleetDomains is the signalling chain length: source, transit,
	// destination.
	fleetDomains = 3
	// fleetPerUserRate is each honest reservation's bandwidth.
	fleetPerUserRate = units.Mbps
	// fleetCapacityFactor sizes each domain's premium pool as a
	// fraction of Users×fleetPerUserRate.
	fleetCapacityFactor = 0.30
	// fleetMinCapacity floors each domain's pool, so that a tiny
	// population still admits.
	fleetMinCapacity = 64 * fleetPerUserRate
	// fleetDiurnalOverload is the diurnal peak's expected concurrency
	// as a multiple of the pool: at every population the peak overruns
	// the pool a little, so some of its requests are refused and retry.
	fleetDiurnalOverload = 1.02
	// fleetAttackerFraction is the share of users that misreserve in
	// the misreservation scenario.
	fleetAttackerFraction = 0.01
	// fleetAttackerOverbook is how much bandwidth an attacker books in
	// its source domain relative to fleetPerUserRate: misbooking is
	// cheap when only the source domain checks.
	fleetAttackerOverbook = 10
)

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
	// GoodputMbps is the per-hold premium goodput distribution through
	// the edge marker.
	GoodputMbps Quantiles
	// Attack is set by the misreservation scenario only.
	Attack *AttackResult
	// Invariants lists the cross-cutting checks that passed.
	Invariants []string
	// Digest is the scenario's SHA-256 over grants, denials, cancels
	// and final table state, in settle order.
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

// fleetDomain is one domain of the World as the fleet sees it: its
// broker's reservation table, the data plane that broker programs and
// the fleet meters, and the fleet's running committed sum, the model
// the invariant battery checks the table against.
type fleetDomain struct {
	name      string
	capacity  units.Bandwidth
	table     *resv.Table
	plane     *netsimdp.Plane
	committed units.Bandwidth
}

// fleetBooking is one granted reservation in the engine's ledger. The
// first len(handles) domains of the chain hold it, handles[i] in
// domain i.
type fleetBooking struct {
	flow      string
	user      int
	bw        units.Bandwidth
	handles   []string
	grantedAt time.Duration
	offer     float64
	cancelled bool
}

// fleetEngine drives one scenario on a World of its own, so digests
// are independent.
type fleetEngine struct {
	cfg   FleetConfig
	sim   *dsim.Sim
	world *World
	// base is the instant the scenario started at. The brokers' clock
	// is base plus dsim's virtual offset, which tick mirrors into now
	// for the broker goroutines. Certificates are issued against the
	// real date, so base has to be it.
	base      time.Time
	now       atomic.Int64
	domains   []*fleetDomain
	users     []*User // created on first use
	bookings  map[string]*fleetBooking
	userOffer []float64

	goodputs   []float64 // Mb/s, completed holds
	grants     int64
	denials    int64
	retries    int64
	cancels    int64
	admitOps   int64 // admissions the grants hold, for compaction bounds
	drained    bool
	violations []string
	h          hash.Hash
	seq        int64
}

func newFleetEngine(cfg FleetConfig, scenario string) (*fleetEngine, error) {
	e := &fleetEngine{
		cfg:      cfg,
		sim:      dsim.New(),
		base:     time.Now().Round(0),
		users:    make([]*User, cfg.Users),
		bookings: make(map[string]*fleetBooking),
		h:        sha256.New(),
	}
	fmt.Fprintf(e.h, "scenario %s seed %d users %d\n", scenario, cfg.Seed, cfg.Users)
	capacity := max(units.Bandwidth(fleetCapacityFactor*float64(cfg.Users)*float64(fleetPerUserRate)), fleetMinCapacity)
	w, err := BuildWorld(WorldConfig{
		NumDomains: fleetDomains,
		Capacity:   capacity,
		Clock:      func() time.Time { return e.base.Add(time.Duration(e.now.Load())) },
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	e.world = w
	for _, name := range w.Domains {
		e.domains = append(e.domains, &fleetDomain{
			name:     name,
			capacity: capacity,
			table:    w.BBs[name].Table(),
			plane:    w.Planes[name],
		})
	}
	// How hard each user drives its profile, from a dedicated stream.
	e.userOffer = make([]float64, cfg.Users)
	offerRNG := newRNG(cfg.Seed, 0xB22)
	for u := 0; u < cfg.Users; u++ {
		e.userOffer[u] = 0.70 + 0.55*offerRNG.Float64()
	}
	return e, nil
}

// close stops the scenario's World.
func (e *fleetEngine) close() { e.world.Close() }

// userRNG returns user u's private behaviour stream for a scenario
// phase, independent of every other user's.
func (e *fleetEngine) userRNG(u int, phase uint64) *rng {
	return newRNG(e.cfg.Seed, uint64(u)<<8|phase)
}

// tick mirrors dsim's virtual time into the brokers' clock and
// returns it.
func (e *fleetEngine) tick() time.Duration {
	t := e.sim.Now()
	e.now.Store(int64(t))
	return t
}

// at converts virtual time to the brokers' wall time.
func (e *fleetEngine) at(t time.Duration) time.Time { return e.base.Add(t) }

// user returns user u's principal, creating it on first use.
func (e *fleetEngine) user(u int) (*User, error) {
	if e.users[u] == nil {
		usr, err := e.world.NewUser(fmt.Sprintf("u%d", u), "", nil, nil)
		if err != nil {
			return nil, err
		}
		e.users[u] = usr
	}
	return e.users[u], nil
}

func (e *fleetEngine) violate(format string, args ...any) {
	if len(e.violations) < 32 {
		e.violations = append(e.violations, fmt.Sprintf(format, args...))
	}
}

// reserve asks the brokers for one reservation of bw for user: end to
// end, or at the source domain only when local is set (the paper's
// source-domain baseline). On grant it opens the flow's marking
// window on the profile the source broker installed, bumps the
// committed sum of every domain holding a claim and returns the
// booking; a refusal is counted under the domain that
// refused, and nil returned. The user's connection is dropped once
// the broker has answered.
func (e *fleetEngine) reserve(user int, bw units.Bandwidth, hold time.Duration, local bool) *fleetBooking {
	t := e.tick()
	e.seq++
	flow := fmt.Sprintf("u%d.%d", user, e.seq)
	u, err := e.user(user)
	if err != nil {
		e.violate("user %d: %v", user, err)
		return nil
	}
	spec := u.NewSpec(SpecOptions{
		DestDomain: e.world.DestDomain(),
		Bandwidth:  bw,
		Window:     units.NewWindow(e.at(t), hold+fleetWindowSlack),
	})
	spec.RARID = flow
	var res *signalling.ResultPayload
	hops := len(e.domains)
	if local {
		res, err = u.ReserveLocalAt(u.Domain, spec)
		hops = 1
	} else {
		res, err = u.ReserveE2E(spec)
	}
	u.Close()
	if err != nil {
		e.violate("reserve %s: %v", flow, err)
		return nil
	}
	if !res.Granted {
		// The refusal comes first, the remarks of the hops above it
		// after it.
		denier := ""
		if len(res.Approvals) > 0 {
			denier = res.Approvals[0].Domain
		}
		e.denials++
		fmt.Fprintf(e.h, "deny %s %s %d\n", flow, denier, t)
		return nil
	}
	if len(res.Approvals) != hops {
		e.violate("grant %s holds %d claims, want %d", flow, len(res.Approvals), hops)
		return nil
	}
	// A grant's claims come destination first. Each handle is cut from
	// the result's approval stack, so it is copied rather than kept
	// pinning the stack for the booking's life.
	b := &fleetBooking{flow: flow, user: user, bw: bw, grantedAt: t, offer: e.userOffer[user]}
	for i := hops - 1; i >= 0; i-- {
		b.handles = append(b.handles, strings.Clone(res.Approvals[i].Handle))
	}
	e.grants++
	e.admitOps += int64(hops)
	e.bookings[flow] = b
	e.domains[0].plane.Mark(flow, 0, t) // open the marking window at grant
	for _, d := range e.domains[:hops] {
		d.committed += bw
		if d.committed > d.capacity {
			e.violate("domain %s committed %v exceeds capacity %v", d.name, d.committed, d.capacity)
		}
	}
	fmt.Fprintf(e.h, "grant %s %v %d %v\n", flow, bw, t, b.handles)
	return b
}

// defaultFleetBucket matches the broker's default profile burst.
const defaultFleetBucket = 30_000

// cancelBooking folds the hold's measured goodput into the
// distribution, then has the user cancel the booking at its source
// broker, which tears it down along its path and removes the flow's
// profile: the goodput has to be read first.
func (e *fleetEngine) cancelBooking(b *fleetBooking) {
	if b.cancelled {
		return
	}
	b.cancelled = true
	t := e.tick()
	if hold := t - b.grantedAt; hold > 0 {
		offered := int64(float64(b.bw.BytesIn(hold)) * b.offer)
		premium := e.domains[0].plane.Mark(b.flow, offered, t)
		e.goodputs = append(e.goodputs, float64(premium*8)/hold.Seconds()/1e6)
	}
	u := e.users[b.user]
	if err := u.Cancel(u.Domain, b.flow); err != nil {
		e.violate("cancel %s: %v", b.flow, err)
	}
	u.Close()
	for _, d := range e.domains[:len(b.handles)] {
		d.committed -= b.bw
		if d.committed < 0 {
			e.violate("domain %s committed went negative", d.name)
		}
	}
	e.cancels++
	fmt.Fprintf(e.h, "cancel %s %d\n", b.flow, t)
}

// holdThenCancel schedules the closed-loop cancel for a grant.
func (e *fleetEngine) holdThenCancel(b *fleetBooking, hold time.Duration) {
	_ = e.sim.Schedule(e.sim.Now()+hold, func() { e.cancelBooking(b) })
}

// liveBookings returns the bookings not yet cancelled, in flow order.
func (e *fleetEngine) liveBookings() []*fleetBooking {
	flows := make([]string, 0, len(e.bookings))
	for f, b := range e.bookings {
		if !b.cancelled {
			flows = append(flows, f)
		}
	}
	sort.Strings(flows)
	live := make([]*fleetBooking, len(flows))
	for i, f := range flows {
		live[i] = e.bookings[f]
	}
	return live
}

// drain cancels every live booking immediately (scenario teardown).
func (e *fleetEngine) drain() {
	for _, b := range e.liveBookings() {
		e.cancelBooking(b)
	}
	e.drained = true
}

// finish runs the invariant battery, folds the final table state and
// the planes' class stats into the digest and assembles the scenario
// result. Table instants are folded relative to base.
func (e *fleetEngine) finish(name string, events int) (ScenarioResult, error) {
	e.tick()
	checks := e.checkInvariants()
	for _, d := range e.domains {
		for _, r := range d.table.All() {
			fmt.Fprintf(e.h, "entry %s %s %s %v %d %d\n", r.Handle, r.User, r.Status, r.Bandwidth,
				r.Window.Start.Sub(e.base), r.Window.End.Sub(e.base))
		}
		cs := d.plane.ClassStats()
		fmt.Fprintf(e.h, "plane %s %d %d\n", d.name, cs.PremiumBytes, cs.ExcessPremiumBytes)
	}
	res := ScenarioResult{
		Name:        name,
		Grants:      e.grants,
		Denials:     e.denials,
		Retries:     e.retries,
		Cancels:     e.cancels,
		GoodputMbps: quantilesOf(e.goodputs),
		Invariants:  checks,
		Digest:      hex.EncodeToString(e.h.Sum(nil)),
		Events:      events,
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
