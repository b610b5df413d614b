package experiment

import (
	"fmt"
	"time"

	"e2eqos/internal/units"
)

// TunnelSample compares per-flow end-to-end signalling against tunnel
// sub-flow allocation for n parallel flows between the same end
// domains.
type TunnelSample struct {
	PerFlowMsgs int64
	PerFlowTime time.Duration
	TunnelMsgs  int64 // includes the tunnel establishment
	TunnelTime  time.Duration
}

// MeasureTunnel runs both strategies for n flows over a fresh world of
// d domains with the given hop latency.
func MeasureTunnel(n, d int, hopLatency time.Duration) (TunnelSample, error) {
	var out TunnelSample

	// Per-flow end-to-end: n independent hop-by-hop reservations.
	{
		w, err := BuildWorld(WorldConfig{
			NumDomains: d,
			Capacity:   units.Bandwidth(n+1) * 10 * units.Mbps,
			Latency:    hopLatency,
		})
		if err != nil {
			return out, err
		}
		u, err := w.NewUser("alice", "", nil, nil)
		if err != nil {
			w.Close()
			return out, err
		}
		// Warm connections along the chain.
		warm := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
		if res, err := u.ReserveE2E(warm); err != nil || !res.Granted {
			w.Close()
			return out, fmt.Errorf("warmup: %v %+v", err, res)
		}
		w.Net.ResetCounters()
		start := time.Now()
		for i := 0; i < n; i++ {
			spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
			res, err := u.ReserveE2E(spec)
			if err != nil || !res.Granted {
				u.Close()
				w.Close()
				return out, fmt.Errorf("per-flow %d: %v %+v", i, err, res)
			}
		}
		out.PerFlowTime = time.Since(start)
		out.PerFlowMsgs = w.Net.Messages()
		u.Close()
		w.Close()
	}

	// Tunnel: one establishment + n direct sub-flow allocations.
	{
		w, err := BuildWorld(WorldConfig{
			NumDomains: d,
			Capacity:   units.Bandwidth(n+1) * 10 * units.Mbps,
			Latency:    hopLatency,
		})
		if err != nil {
			return out, err
		}
		u, err := w.NewUser("alice", "", nil, nil)
		if err != nil {
			w.Close()
			return out, err
		}
		w.Net.ResetCounters()
		start := time.Now()
		spec := u.NewSpec(SpecOptions{
			DestDomain: w.DestDomain(),
			Bandwidth:  units.Bandwidth(n) * 10 * units.Mbps,
			Tunnel:     true,
		})
		res, err := u.ReserveE2E(spec)
		if err != nil || !res.Granted {
			u.Close()
			w.Close()
			return out, fmt.Errorf("tunnel establishment: %v %+v", err, res)
		}
		src := w.BBs[w.SourceDomain()]
		for i := 0; i < n; i++ {
			if err := src.AllocateTunnelFlow(spec.RARID, fmt.Sprintf("sub-%d", i), 10*units.Mbps, u.DN()); err != nil {
				u.Close()
				w.Close()
				return out, fmt.Errorf("sub-flow %d: %w", i, err)
			}
		}
		out.TunnelTime = time.Since(start)
		out.TunnelMsgs = w.Net.Messages()
		u.Close()
		w.Close()
	}
	return out, nil
}

// RunTunnelScaling reproduces the scalability argument of §1: "If a
// set of applications creates many parallel flows between the same two
// end-domains, it is infeasible to negotiate an end-to-end reservation
// for each one."
func RunTunnelScaling(hopLatency time.Duration) (*Table, error) {
	const domains = 5
	t := &Table{
		ID:    "tunnel",
		Title: fmt.Sprintf("Per-flow signalling vs tunnel sub-flows (%d domains, %v hop latency)", domains, hopLatency),
		Claim: "with a tunnel, intermediate domains are not contacted per flow; per-flow cost drops to the two end domains",
		Columns: []string{
			"flows", "per-flow msgs", "per-flow time", "tunnel msgs", "tunnel time", "msg ratio",
		},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		s, err := MeasureTunnel(n, domains, hopLatency)
		if err != nil {
			return nil, fmt.Errorf("n=%d: %w", n, err)
		}
		ratio := float64(s.PerFlowMsgs) / float64(s.TunnelMsgs)
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", s.PerFlowMsgs),
			fmt.Sprintf("%.1fms", float64(s.PerFlowTime.Microseconds())/1000),
			fmt.Sprintf("%d", s.TunnelMsgs),
			fmt.Sprintf("%.1fms", float64(s.TunnelTime.Microseconds())/1000),
			fmt.Sprintf("%.2fx", ratio),
		)
	}
	t.Notes = append(t.Notes,
		"tunnel msgs include the one-time establishment through all domains; the advantage grows with the flow count",
	)
	return t, nil
}
