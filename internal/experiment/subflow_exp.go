package experiment

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// The sub-flow load generator's shape.
const (
	// subFlowUsers is the number of concurrent workers hammering the
	// tunnel.
	subFlowUsers = 8
	// subFlowOpsPerUser is how many sub-flows each worker allocates.
	subFlowOpsPerUser = 256
	// subFlowDomains is the path length of the establishing
	// reservation (the sub-flow path always touches just the two ends).
	subFlowDomains = 5
)

// subFlowBatchSizes are the arms of the sweep; 1 is the baseline (one
// round trip per sub-flow).
var subFlowBatchSizes = []int{1, 8, 64}

// SubFlowSample is one arm of the sweep.
type SubFlowSample struct {
	Batch    int
	Ops      int
	Took     time.Duration
	PerSec   float64
	Messages int64
}

// MeasureSubFlowLoad runs one arm: establish a tunnel over a fresh
// world whose hops each take latency one way, then drive subFlowUsers
// concurrent workers through the source broker in MsgTunnelBatch calls
// of batch ops until every worker has allocated subFlowOpsPerUser
// sub-flows.
func MeasureSubFlowLoad(latency time.Duration, batch int) (SubFlowSample, error) {
	out := SubFlowSample{Batch: batch, Ops: subFlowUsers * subFlowOpsPerUser}
	need := units.Bandwidth(out.Ops+1) * units.Mbps
	w, err := BuildWorld(WorldConfig{
		NumDomains:  subFlowDomains,
		Capacity:    need * 2,
		Latency:     latency,
		CallTimeout: 30 * time.Second,
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
	spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: need, Tunnel: true})
	if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
		return out, fmt.Errorf("tunnel establishment: %v %+v", err, res)
	}
	src := w.BBs[w.SourceDomain()]
	w.Net.ResetCounters()

	var wg sync.WaitGroup
	var failed atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	for wkr := 0; wkr < subFlowUsers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for done := 0; done < subFlowOpsPerUser; {
				n := batch
				if rest := subFlowOpsPerUser - done; n > rest {
					n = rest
				}
				ops := make([]signalling.TunnelOp, n)
				for i := range ops {
					ops[i] = signalling.TunnelOp{
						Action:    signalling.OpAlloc,
						SubFlowID: fmt.Sprintf("u%d-s%d", wkr, done+i),
						Bandwidth: int64(units.Mbps),
					}
				}
				results, err := src.TunnelBatch(spec.RARID, ops, u.DN())
				if err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, err)
					return
				}
				for _, r := range results {
					if !r.Granted {
						failed.Add(1)
						firstErr.CompareAndSwap(nil, fmt.Errorf("op %s denied: %s", r.SubFlowID, r.Reason))
						return
					}
				}
				done += n
			}
		}(wkr)
	}
	wg.Wait()
	out.Took = time.Since(start)
	out.Messages = w.Net.Messages()
	if n := failed.Load(); n > 0 {
		return out, fmt.Errorf("%d workers failed, first: %v", n, firstErr.Load())
	}
	ep, ok := src.Tunnel(spec.RARID)
	if !ok || ep.Len() != out.Ops {
		return out, fmt.Errorf("source endpoint holds %d sub-flows, want %d", ep.Len(), out.Ops)
	}
	out.PerSec = float64(out.Ops) / out.Took.Seconds()
	return out, nil
}

// RunSubFlowLoad sweeps batch sizes over the tunnel sub-flow hot path:
// the ROADMAP's millions-of-users argument lives or dies on how many
// per-user admissions the two end domains sustain, so the table shows
// allocations/sec per batch size against one sub-flow per round trip.
// latency is the modelled one-way signalling latency per hop.
func RunSubFlowLoad(latency time.Duration) (*Table, error) {
	t := &Table{
		ID: "subflows",
		Title: fmt.Sprintf("Tunnel sub-flow throughput (%d workers x %d allocs, %d domains, %v hop latency)",
			subFlowUsers, subFlowOpsPerUser, subFlowDomains, latency),
		Claim:   "batched two-endpoint signalling turns the per-user admission path into the control plane's fast path",
		Columns: []string{"batch", "allocs", "msgs", "time", "allocs/sec", "speedup"},
	}
	var base float64
	for _, batch := range subFlowBatchSizes {
		s, err := MeasureSubFlowLoad(latency, batch)
		if err != nil {
			return nil, fmt.Errorf("batch=%d: %w", batch, err)
		}
		if base == 0 {
			base = s.PerSec
		}
		t.AddRow(
			fmt.Sprintf("%d", s.Batch),
			fmt.Sprintf("%d", s.Ops),
			fmt.Sprintf("%d", s.Messages),
			fmt.Sprintf("%.1fms", float64(s.Took.Microseconds())/1000),
			fmt.Sprintf("%.0f", s.PerSec),
			fmt.Sprintf("%.2fx", s.PerSec/base),
		)
	}
	t.Notes = append(t.Notes,
		"batch=1 is the baseline: a batch of one op, one round trip per sub-flow",
		"all arms touch only the two end domains; intermediate brokers see none of this traffic",
	)
	return t, nil
}
