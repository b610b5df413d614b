package experiment

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/resv"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// FaultSweepConfig parameterises RunFaultSweep.
type FaultSweepConfig struct {
	// Trials is the number of reservations attempted per cell.
	Trials int
	// CallTimeout is the per-hop signalling deadline.
	CallTimeout time.Duration
}

// The fault sweep's grid.
const (
	// faultDomains is the chain length.
	faultDomains = 5
	// faultSeed drives the fault injection, and the sweep never reads
	// the clock for randomness. Same seed, same draws: it fixes the
	// sequence each dialer's lossScript draws; which message a draw
	// lands on follows the order in which messages reach that dialer.
	faultSeed = 1
)

// faultProbs are the per-hop message-loss probabilities swept. Each is
// applied as both a send-drop and a receive-drop on every inter-broker
// link.
var faultProbs = []float64{0, 0.02, 0.05, 0.1, 0.2}

// faultRetryBudgets are the MaxRetries settings compared per
// probability.
var faultRetryBudgets = []int{0, 2}

// lossScript loses each message, in either direction, with
// probability p: one Float64 draw per message from its own stream
// seeded with seed (0 behaves as 1). It counts what it drops into
// drops. One script serves one dialer; the connections it opens share
// the stream.
func lossScript(seed int64, p float64, drops *atomic.Int64) transport.Script {
	if seed == 0 {
		seed = 1
	}
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(string, bool, []byte) transport.FaultAction {
		mu.Lock()
		lost := rng.Float64() < p
		mu.Unlock()
		if !lost {
			return transport.FaultPass
		}
		drops.Add(1)
		return transport.FaultDrop
	}
}

// faultCell is one measured (probability, retry-budget) combination.
type faultCell struct {
	grants, denials, errors int
	grantLat, denyLat       time.Duration
	faults                  int64
	stranded                int
	// Observability-layer totals summed across all domains, so the
	// table shows the robustness machinery at work, not just outcomes.
	retries, breakerOpens, rollbacks, replays float64
}

// runFaultCell builds a fresh faulted world and attempts cfg.Trials
// reservations through it.
func runFaultCell(cfg FaultSweepConfig, prob float64, retries int) (faultCell, error) {
	var out faultCell
	var drops atomic.Int64
	// Per-dialer seeds come from the sweep's seed stream, not a
	// counter from 1: distinct (seed, prob, retries) cells inject
	// distinct-but-reproducible fault patterns.
	seeds := newRNG(faultSeed, uint64(prob*1e6)<<8|uint64(retries))
	w, err := BuildWorld(WorldConfig{
		NumDomains:  faultDomains,
		Capacity:    units.Gbps,
		CallTimeout: cfg.CallTimeout,
		Broker:      bb.Config{MaxRetries: retries, RetryBackoff: 2 * time.Millisecond},
		EnableObs:   true,
		WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
			if prob <= 0 {
				return d
			}
			return transport.NewFaultyDialer(d, lossScript(int64(seeds.Uint64()>>1), prob, &drops))
		},
	})
	if err != nil {
		return out, err
	}
	defer w.Close()
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		return out, err
	}
	defer u.Close()

	for i := 0; i < cfg.Trials; i++ {
		spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
		start := time.Now()
		res, err := u.ReserveE2E(spec)
		elapsed := time.Since(start)
		switch {
		case err != nil:
			out.errors++
		case res.Granted:
			out.grants++
			out.grantLat += elapsed
		default:
			out.denials++
			out.denyLat += elapsed
		}
	}
	out.faults = drops.Load()
	// Denial-propagation correctness: every granted reservation holds
	// one slot per domain; anything beyond that is bandwidth stranded
	// by a lost response. Best-effort cancels are asynchronous, so
	// allow them a settling window before counting.
	want := out.grants * faultDomains
	settle := time.Now().Add(3 * time.Second)
	for {
		got := 0
		for _, broker := range w.BBs {
			for _, r := range broker.Table().All() {
				if r.Status == resv.Granted {
					got++
				}
			}
		}
		out.stranded = got - want
		if out.stranded <= 0 || time.Now().After(settle) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	out.retries = w.CounterTotal("bb_retries_total")
	out.breakerOpens = w.CounterTotal("bb_breaker_opens_total")
	out.rollbacks = w.CounterTotal("bb_rollbacks_total")
	out.replays = w.CounterTotal("bb_replays_total")
	return out, nil
}

// RunFaultSweep measures the robustness layer end to end: reservation
// outcome, latency and rollback correctness over a chain whose every
// inter-broker link loses messages with a swept probability.
func RunFaultSweep(cfg FaultSweepConfig) (*Table, error) {
	t := &Table{
		ID:    "faults",
		Title: fmt.Sprintf("Reservation outcome under per-hop message loss (%d domains, %v hop deadline, %d trials)", faultDomains, cfg.CallTimeout, cfg.Trials),
		Claim: "a denied or failed hop must propagate upstream within the deadline budget and leave no reservation stranded in any domain",
		Columns: []string{
			"loss prob", "retries",
			"grants", "denials", "errors",
			"grant lat", "denial lat",
			"faults injected", "stranded",
			"bb retries", "breaker opens", "rollbacks", "replays",
		},
	}
	ms := func(total time.Duration, n int) string {
		if n == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fms", float64((total/time.Duration(n)).Microseconds())/1000)
	}
	for _, prob := range faultProbs {
		for _, retries := range faultRetryBudgets {
			c, err := runFaultCell(cfg, prob, retries)
			if err != nil {
				return nil, fmt.Errorf("p=%.2f retries=%d: %w", prob, retries, err)
			}
			stranded := fmt.Sprintf("%d", c.stranded)
			if c.stranded <= 0 {
				stranded = "0 (clean)"
			}
			t.AddRow(
				fmt.Sprintf("%.2f", prob),
				fmt.Sprintf("%d", retries),
				fmt.Sprintf("%d", c.grants),
				fmt.Sprintf("%d", c.denials),
				fmt.Sprintf("%d", c.errors),
				ms(c.grantLat, c.grants),
				ms(c.denyLat, c.denials),
				fmt.Sprintf("%d", c.faults),
				stranded,
				fmt.Sprintf("%.0f", c.retries),
				fmt.Sprintf("%.0f", c.breakerOpens),
				fmt.Sprintf("%.0f", c.rollbacks),
				fmt.Sprintf("%.0f", c.replays),
			)
		}
	}
	t.Notes = append(t.Notes,
		"a lost message either times out at the sender (denial after the hop deadline) or strands optimistic admissions; the best-effort downstream cancel reclaims them",
		"retries recover grants lost to transient faults at the cost of extra deadline exposure per hop",
		"errors are user-visible transport failures: the user's own deadline fired before any broker answered",
		"bb retries / breaker opens / rollbacks / replays are the brokers' own metrics (bb_*_total summed over all domains): the observability layer answering which machinery fired, not just what the user saw",
	)
	return t, nil
}
