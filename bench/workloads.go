package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/experiment"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// workload is one named load shape. All four are closed loops on the
// in-memory transport with zero injected latency: one caller, which
// sends its next request only when the previous one has been answered.
type workload struct {
	name string
	why  string
	// domains is the length of the linear chain; hops is how many
	// brokers one request crosses (the tunnel's direct channel joins
	// only the two end domains).
	domains, hops int
	// bookings pre-books every table with that many live, mutually
	// overlapping reservations.
	bookings int
	// replicas > 1 journals with batch fsync and replicates each domain.
	replicas int
	// batch > 0 makes the cycle a tunnel batch of that many sub-flows
	// over standing already-allocated ones.
	batch, standing int
}

var workloads = []workload{
	{
		name: "chain8_reserve", domains: 8, hops: 8,
		why: "8-domain chain, memory-only, near-empty tables: the O(N^2) envelope-chain verify does most of the work",
	},
	{
		name: "booked2k_reserve", domains: 2, hops: 2, bookings: 2000,
		why: "2-domain chain, each table pre-booked with 2000 overlapping reservations: the admission sweep does most of the work",
	},
	{
		name: "replicated3_reserve", domains: 3, hops: 3, replicas: 3,
		why: "3-domain chain, batch-fsync journal, 3 replicas per domain: journal append, follower stream and majority commit gate carry the marginal cost",
	},
	{
		name: "tunnel_batch256", domains: 5, hops: 2, batch: 256, standing: 8192,
		why: "256-sub-flow batches on a 5-domain tunnel holding 8192 flows: codec, transport and tunnel admission only; the control for chain and table work",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	warmupCycles = 50
	// clockStep is how far the benchmark-owned clock moves per cycle:
	// with resv's 5-minute retention and its sweep every 128 admits, a
	// table then carries a few hundred dead entries however long the
	// run is — the steady state of a long-running broker.
	clockStep   = 2 * time.Second
	capacity    = 1000 * units.Gbps
	tunnelRate  = 500 * units.Gbps
	callTimeout = 5 * time.Second
)

// steppedClock is the time source every broker of a world reads.
type steppedClock struct {
	base  time.Time
	steps atomic.Int64
}

func (c *steppedClock) now() time.Time {
	return c.base.Add(time.Duration(c.steps.Load()) * clockStep)
}

// instance is one built, warmed world and its one closed-loop caller.
type instance struct {
	wl     *workload
	seed   int64
	world  *experiment.World
	user   *experiment.User
	clock  *steppedClock
	t0     time.Time // start of the test window
	tracer *tracer   // nil on an untraced world

	stateDir string
	closed   bool
	quiesce  time.Duration

	// available is every table's headroom over the test window before
	// the first cycle; the run must leave it unchanged.
	available map[string]units.Bandwidth
	// Tunnel workloads: the established tunnel and its standing load.
	tunnelRAR    string
	tunnels      int // established so far
	standingUsed units.Bandwidth

	// Inputs of the cycle in flight, built by prepare.
	cycle int64
	spec  *core.Spec
	batch batchOp

	// What the caller measured since resetSamples.
	acquire, release  []time.Duration
	attempted, failed int
	completed         int
	gen               time.Duration // time spent building inputs
	firstErr          error
	// grants are the results not yet verified; problems the output
	// checks that have failed so far.
	grants   []*signalling.ResultPayload
	problems []string
}

// setup builds the world, pre-books or establishes what the workload
// needs and runs the warm-up cycles. Its duration is setup_s.
func (wl *workload) setup(seed int64, tr *tracer, outDir string) (*instance, error) {
	in := &instance{wl: wl, seed: seed, tracer: tr, quiesce: quiesceTimeout}
	in.clock = &steppedClock{base: time.Now().Truncate(time.Second)}
	in.t0 = in.clock.base.Add(testWindowLead)

	labels := make([]string, wl.domains)
	index := make(map[string]int, wl.domains)
	for i := range labels {
		labels[i] = fmt.Sprintf("Domain%d", i)
		index[labels[i]] = i
	}
	cfg := experiment.WorldConfig{
		NumDomains:  wl.domains,
		Labels:      labels,
		Capacity:    capacity,
		Clock:       in.clock.now,
		Seed:        uint64(seed),
		CallTimeout: callTimeout,
	}
	if wl.replicas > 1 {
		var err error
		if in.stateDir, err = os.MkdirTemp(outDir, "state-"); err != nil {
			return nil, err
		}
		cfg.StateDir = in.stateDir
		cfg.FsyncPolicy = "batch"
		cfg.Replicas = wl.replicas
	}
	if tr != nil {
		cfg.EnableObs = true
		for _, label := range labels {
			tr.brokers["bb."+label] = true
		}
		cfg.WrapDialer = func(domain string, d transport.Dialer) transport.Dialer {
			return tr.wrapDialer(index[domain], d)
		}
	}
	w, err := experiment.BuildWorld(cfg)
	if err != nil {
		in.close()
		return nil, err
	}
	in.world = w
	if tr != nil {
		for _, label := range labels {
			if !tr.brokers[w.BBAddr(label)] {
				in.close()
				return nil, fmt.Errorf("broker of %s listens at %q, which the span recorder does not know", label, w.BBAddr(label))
			}
		}
	}
	if in.user, err = w.NewUser("alice", "", nil, nil); err != nil {
		in.close()
		return nil, err
	}
	if err := in.prebook(); err != nil {
		in.close()
		return nil, err
	}
	if wl.batch > 0 {
		if err := in.establishTunnel(); err != nil {
			in.close()
			return nil, err
		}
	}
	in.available = in.tableHeadroom()
	in.runCycles(warmupCycles)
	if in.firstErr != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", in.firstErr)
	}
	in.resetSamples()
	return in, nil
}

// prebook fills every table through its public Admit, one goroutine
// per table.
func (in *instance) prebook() error {
	if in.wl.bookings == 0 {
		return nil
	}
	errs := make(chan error, len(in.world.Domains))
	for ti, name := range in.world.Domains {
		go func(ti int, table *resv.Table) {
			errs <- bookTable(table, in.seed, ti, in.wl.bookings, in.t0, in.user.DN())
		}(ti, in.world.BBs[name].Table())
	}
	var first error
	for range in.world.Domains {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// establishTunnel reserves the tunnel end to end and allocates the
// standing sub-flows in batches of the workload's size.
func (in *instance) establishTunnel() error {
	spec := in.user.NewSpec(experiment.SpecOptions{
		DestDomain: in.world.DestDomain(),
		Bandwidth:  tunnelRate,
		Window:     units.Window{Start: in.t0, End: in.t0.Add(testWindowSpan)},
		Tunnel:     true,
	})
	in.tunnels++
	spec.RARID = fmt.Sprintf("tunnel-%d-%d", in.seed, in.tunnels)
	res, err := in.user.ReserveE2E(spec)
	if err != nil {
		return fmt.Errorf("tunnel establishment: %w", err)
	}
	if !res.Granted {
		return fmt.Errorf("tunnel establishment denied: %s", res.Reason)
	}
	in.tunnelRAR = spec.RARID
	src := in.world.BBs[in.world.SourceDomain()]
	for k := 1; k <= in.wl.standing/in.wl.batch; k++ {
		op := genBatch(in.seed, int64(-k), in.wl.batch)
		if err := batchGranted(src.TunnelBatch(in.tunnelRAR, op.Alloc, in.user.DN())); err != nil {
			return fmt.Errorf("standing sub-flows: %w", err)
		}
	}
	ep, _ := src.Tunnel(in.tunnelRAR)
	in.standingUsed = ep.Used()
	return nil
}

// renewTunnel tears the tunnel down and establishes it again. The end
// brokers remember every batch's outcome for as long as its tunnel
// lives (≈3 KB a cycle here), so a tunnel that is never renewed makes
// memory, and the collector's share of a cycle, grow with the number of
// cycles run; renewing it between windows keeps the workload
// stationary.
func (in *instance) renewTunnel() error {
	if err := in.user.Cancel(in.user.Domain, in.tunnelRAR); err != nil {
		return fmt.Errorf("tunnel teardown: %w", err)
	}
	return in.establishTunnel()
}

func batchGranted(results []signalling.TunnelOpResult, err error) error {
	if err != nil {
		return err
	}
	for _, r := range results {
		if !r.Granted {
			return fmt.Errorf("sub-flow %s denied: %s", r.SubFlowID, r.Reason)
		}
	}
	return nil
}

func (in *instance) testWindow() units.Window {
	return units.Window{Start: in.t0.Add(-windowJitter), End: in.t0.Add(testWindowSpan + windowJitter)}
}

func (in *instance) tableHeadroom() map[string]units.Bandwidth {
	out := make(map[string]units.Bandwidth, len(in.world.Domains))
	for _, name := range in.world.Domains {
		out[name] = in.world.BBs[name].Table().Available(in.testWindow())
	}
	return out
}

// prepare builds the next cycle's inputs; it runs before the cycle's
// timer.
func (in *instance) prepare() {
	in.cycle++
	if in.wl.batch > 0 {
		in.batch = genBatch(in.seed, in.cycle, in.wl.batch)
		return
	}
	op := genReserve(in.seed, in.cycle)
	in.spec = in.user.NewSpec(experiment.SpecOptions{
		DestDomain: in.world.DestDomain(),
		Bandwidth:  op.Bandwidth,
		Window:     op.window(in.t0),
	})
	in.spec.RARID = op.RARID
}

// doAcquire sends the request that takes bandwidth.
func (in *instance) doAcquire() error {
	if in.wl.batch > 0 {
		src := in.world.BBs[in.world.SourceDomain()]
		return batchGranted(src.TunnelBatch(in.tunnelRAR, in.batch.Alloc, in.user.DN()))
	}
	res, err := in.user.ReserveE2E(in.spec)
	if err != nil {
		return err
	}
	if !res.Granted {
		return fmt.Errorf("reserve %s denied: %s", in.spec.RARID, res.Reason)
	}
	in.grants = append(in.grants, res)
	return nil
}

// doRelease sends the request that returns it.
func (in *instance) doRelease() error {
	if in.wl.batch > 0 {
		src := in.world.BBs[in.world.SourceDomain()]
		return batchGranted(src.TunnelBatch(in.tunnelRAR, in.batch.Release, in.user.DN()))
	}
	return in.user.Cancel(in.user.Domain, in.spec.RARID)
}

func (in *instance) fail(err error) {
	in.failed++
	if in.firstErr == nil {
		in.firstErr = err
	}
}

// runCycle is one acquire then one release; a failed acquire has
// nothing to release.
func (in *instance) runCycle() {
	g0 := time.Now()
	in.prepare()
	in.clock.steps.Add(1)
	t0 := time.Now()
	in.gen += t0.Sub(g0)

	in.attempted++
	err := in.doAcquire()
	t1 := time.Now()
	if err != nil {
		in.fail(err)
		return
	}
	in.acquire = append(in.acquire, t1.Sub(t0))

	in.attempted++
	t2 := time.Now()
	err = in.doRelease()
	t3 := time.Now()
	if err != nil {
		in.fail(err)
		return
	}
	in.release = append(in.release, t3.Sub(t2))
	in.completed++
	if in.tracer != nil {
		in.tracer.client(in.cycle, "acquire", t0, t1)
		in.tracer.client(in.cycle, "release", t2, t3)
	}
}

func (in *instance) runCycles(n int) {
	for i := 0; i < n; i++ {
		in.runCycle()
	}
}

// window is the longest stretch of cycles that is metered in one piece;
// between two of them the grants just received are verified.
const window = time.Second

// measure runs cycles for about d, split into equal windows no longer
// than window. The meter, when there is one, covers the cycles and
// keeps each window's figures; between windows, off the meter, the
// grants just received are verified and dropped and a tunnel is
// renewed.
func (in *instance) measure(m *meter, d time.Duration) {
	n := int((d + window - 1) / window)
	for i := 0; i < n; i++ {
		cycles, gen := in.completed, in.gen
		if m != nil {
			m.start()
		}
		for start := time.Now(); time.Since(start) < d/time.Duration(n); {
			in.runCycle()
		}
		if m != nil {
			m.stop(in.completed-cycles, in.gen-gen)
		}
		in.verifyGrants()
		if in.wl.batch > 0 {
			if err := in.renewTunnel(); err != nil {
				in.problems = append(in.problems, err.Error())
				return
			}
		}
	}
}

func (in *instance) resetSamples() {
	in.acquire, in.release = make([]time.Duration, 0, 1<<14), make([]time.Duration, 0, 1<<14)
	in.attempted, in.failed, in.completed, in.gen = 0, 0, 0, 0
	in.grants = in.grants[:0]
}

// close stops the world and removes its journals; a second call does
// nothing.
func (in *instance) close() {
	if in.closed {
		return
	}
	in.closed = true
	if in.user != nil {
		in.user.Close()
	}
	if in.world != nil {
		in.world.Close()
	}
	if in.stateDir != "" {
		os.RemoveAll(in.stateDir)
	}
}
