package experiment

import (
	"fmt"
	"time"

	"e2eqos/internal/dsim"
	"e2eqos/internal/netsim"
	"e2eqos/internal/sla"
	"e2eqos/internal/units"
)

// ChainQoSResult is one measurement of a premium flow crossing a chain
// of congested DiffServ domains.
type ChainQoSResult struct {
	PremiumGoodput float64
	PremiumLatency time.Duration
	CrossGoodput   float64 // one representative best-effort competitor
}

// MeasureDiffServChain builds N domains in series. Each inter-domain
// link is congested: a fresh best-effort cross flow of crossRate
// enters at every hop, competing with Alice's premium flow (rate
// reserved end-to-end and policed per aggregate at each ingress).
func MeasureDiffServChain(domains int, premium, crossRate, linkRate units.Bandwidth, duration time.Duration) (ChainQoSResult, error) {
	var out ChainQoSResult
	if domains < 1 {
		return out, fmt.Errorf("experiment: need at least one domain")
	}
	sim := dsim.New()
	sink := netsim.NewSink(sim)

	// Build the chain back to front: ... -> policer_i -> link_i -> ...
	var head netsim.Receiver = sink
	profile := sla.TrafficProfile{Rate: premium, BucketBytes: 30_000}
	var links []*netsim.Link
	for i := domains - 1; i >= 0; i-- {
		link := netsim.NewLink(sim, linkRate, head)
		links = append(links, link)
		pol := netsim.NewPolicer(sim, profile, link)
		head = pol

		// A best-effort cross flow enters at this hop and shares the
		// link with everything coming from upstream.
		cross := netsim.NewSource(sim, netsim.FlowID(fmt.Sprintf("cross-%d", i)), crossRate, 1250, link)
		cross.Jitter = 0.2
		if err := cross.Install(duration); err != nil {
			return out, err
		}
	}

	marker := netsim.NewEdgeMarker(sim, head)
	marker.InstallReservation("premium", profile)
	src := netsim.NewSource(sim, "premium", premium, 1250, marker)
	src.Jitter = 0.1
	if err := src.Install(duration); err != nil {
		return out, err
	}
	sim.Run(duration + 500*time.Millisecond)

	if st := sink.Stats("premium"); st != nil {
		out.PremiumGoodput = st.Goodput(duration)
		out.PremiumLatency = st.MeanLatency()
	}
	// The cross flow entering at the last hop shares only the final
	// link; the first-hop one crosses everything. Report the first-hop
	// competitor (worst case).
	if st := sink.Stats(netsim.FlowID(fmt.Sprintf("cross-%d", 0))); st != nil {
		out.CrossGoodput = st.Goodput(duration)
	}
	return out, nil
}

// RunDiffServChain reproduces the §2 background claim the whole
// architecture rests on: "By carefully limiting the traffic admitted
// to the traffic aggregate, QoS guarantees for bandwidth can be
// provided" — and they must hold end-to-end across a chain of
// independently policed domains, not just one hop.
func RunDiffServChain(duration time.Duration) (*Table, error) {
	const (
		maxDomains = 5
		premium    = 10 * units.Mbps
		cross      = 40 * units.Mbps
		linkRate   = 30 * units.Mbps
	)
	t := &Table{
		ID:    "diffserv-chain",
		Title: "Premium guarantee across a chain of congested domains (§2)",
		Claim: "admission-limited premium aggregates keep their bandwidth (and low delay) end-to-end while best effort collapses",
		Columns: []string{
			"domains", "premium goodput", "premium mean latency", "first-hop best-effort goodput",
		},
	}
	for n := 1; n <= maxDomains; n++ {
		r, err := MeasureDiffServChain(n, premium, cross, linkRate, duration)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2f Mb/s", r.PremiumGoodput/1e6),
			fmt.Sprintf("%.2fms", float64(r.PremiumLatency.Microseconds())/1000),
			fmt.Sprintf("%.2f Mb/s", r.CrossGoodput/1e6),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("every hop: %v link, %v premium reservation, %v fresh best-effort cross traffic entering", linkRate, premium, cross),
	)
	return t, nil
}
