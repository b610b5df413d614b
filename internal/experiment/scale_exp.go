package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/obs"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// The mixed load RunScaleLoad drives.
const (
	// scaleUsers is the number of concurrent requesters, each with its
	// own identity and signalling connection.
	scaleUsers = 8
	// scaleReserves is how many end-to-end reservations each user
	// places.
	scaleReserves = 64
	// scaleBatchOps is how many tunnel sub-flows are driven through one
	// aggregate tunnel afterwards (batched 64 at a time).
	scaleBatchOps = 2048
	// scaleDomains is the reservation path length.
	scaleDomains = 5
	// scaleSampleRate is each broker's flight-recorder ingress sampling
	// probability; with EventsDir empty no recorder runs at all.
	scaleSampleRate = 0.01
)

// ScaleLoadConfig parameterises the fleet-telemetry load experiment.
type ScaleLoadConfig struct {
	// Latency is the modelled one-way signalling latency per hop.
	Latency time.Duration
	// EventsDir, when set, records sampled events under
	// EventsDir/<domain> during the run.
	EventsDir string
}

// validate rejects configurations that used to be absorbed silently:
// a negative latency is always a caller bug, not a request for the
// default.
func (c ScaleLoadConfig) validate() error {
	if c.Latency < 0 {
		return fmt.Errorf("scale: Latency %v is negative; use 0 for no modelled latency", c.Latency)
	}
	return nil
}

// RunScaleLoad drives mixed reserve and sub-flow load through an
// instrumented world and reports, per broker-side stage, the latency
// quantiles the striped histograms measured while the load ran. This
// is the paper's millions-of-users argument stated as percentiles:
// the table shows what the p999 requester experiences at each stage,
// not just the mean the throughput numbers imply.
func RunScaleLoad(cfg ScaleLoadConfig) (*Table, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	const (
		reserveNeed = scaleUsers * scaleReserves * units.Mbps
		tunnelNeed  = (scaleBatchOps + 1) * units.Mbps
	)
	w, err := BuildWorld(WorldConfig{
		NumDomains:  scaleDomains,
		Capacity:    (reserveNeed + tunnelNeed) * 2,
		Latency:     cfg.Latency,
		CallTimeout: 30 * time.Second,
		EnableObs:   true,
		Broker:      bb.Config{SampleRate: scaleSampleRate},
		EventsDir:   cfg.EventsDir,
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()

	// Phase 1: concurrent end-to-end reserves, one identity per worker.
	var wg sync.WaitGroup
	var failed atomic.Int64
	var firstErr atomic.Value
	users := make([]*User, scaleUsers)
	for i := range users {
		if users[i], err = w.NewUser(fmt.Sprintf("user%d", i), "", nil, nil); err != nil {
			return nil, err
		}
		defer users[i].Close()
	}
	start := time.Now()
	for _, u := range users {
		wg.Add(1)
		go func(u *User) {
			defer wg.Done()
			for r := 0; r < scaleReserves; r++ {
				spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
				res, err := u.ReserveE2E(spec)
				if err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, err)
					return
				}
				if !res.Granted {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("reserve denied: %s", res.Reason))
					return
				}
			}
		}(u)
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return nil, fmt.Errorf("%d reserve workers failed, first: %v", n, firstErr.Load())
	}

	// Phase 2: one aggregate tunnel, then the sub-flow hot path.
	alice := users[0]
	tunnelSpec := alice.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: tunnelNeed, Tunnel: true})
	if res, err := alice.ReserveE2E(tunnelSpec); err != nil || !res.Granted {
		return nil, fmt.Errorf("tunnel establishment: %v %+v", err, res)
	}
	src := w.BBs[w.SourceDomain()]
	for done := 0; done < scaleBatchOps; {
		n := 64
		if rest := scaleBatchOps - done; n > rest {
			n = rest
		}
		ops := make([]signalling.TunnelOp, n)
		for i := range ops {
			ops[i] = signalling.TunnelOp{
				Action:    signalling.OpAlloc,
				SubFlowID: fmt.Sprintf("s%d", done+i),
				Bandwidth: int64(units.Mbps),
			}
		}
		results, err := src.TunnelBatch(tunnelSpec.RARID, ops, alice.DN())
		if err != nil {
			return nil, fmt.Errorf("tunnel batch at %d: %w", done, err)
		}
		for _, r := range results {
			if !r.Granted {
				return nil, fmt.Errorf("op %s denied: %s", r.SubFlowID, r.Reason)
			}
		}
		done += n
	}
	took := time.Since(start)

	t := &Table{
		ID: "scale",
		Title: fmt.Sprintf("Per-stage latency quantiles under mixed load (%d users x %d reserves + %d sub-flows, %d domains, %v hop latency)",
			scaleUsers, scaleReserves, scaleBatchOps, scaleDomains, cfg.Latency),
		Claim:   "striped quantile histograms give per-stage tail latency at fleet load for the cost of two atomic adds per observation",
		Columns: []string{"domain", "stage", "n", "p50", "p99", "p999"},
	}
	fmtQ := func(sec float64) string {
		return time.Duration(sec * float64(time.Second)).Round(100 * time.Nanosecond).String()
	}
	for _, domain := range []string{w.SourceDomain(), w.DestDomain()} {
		quantiles := w.Metrics[domain].Quantiles()
		for _, name := range obs.SortedKeys(quantiles) {
			q := quantiles[name]
			if q.Count == 0 {
				continue
			}
			t.AddRow(domain, name,
				fmt.Sprintf("%d", q.Count),
				fmtQ(q.P50), fmtQ(q.P99), fmtQ(q.P999))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("whole run took %v; quantiles are per-broker, merged across %d histogram stripes at read time",
			took.Round(time.Millisecond), len(w.Domains)),
	)
	if cfg.EventsDir != "" {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"flight recorder at %.0f%% sampling captured %.0f events (%.0f forced) across the fleet",
			scaleSampleRate*100, w.CounterTotal("bb_events_recorded_total"), w.CounterTotal("bb_events_forced_total")))
	}
	return t, nil
}
