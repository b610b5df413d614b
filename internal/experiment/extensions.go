package experiment

import (
	"fmt"
	"time"

	"e2eqos/internal/billing"
	"e2eqos/internal/certrepo"
	"e2eqos/internal/dsim"
	"e2eqos/internal/identity"
	"e2eqos/internal/netsim"
	"e2eqos/internal/sla"
)

// RunKeyDistribution quantifies the §6.4 trade between the two key
// distribution designs the paper weighs: certificates inline in the
// request (+web of trust) versus a trusted certificate repository
// queried out of band. The inline design pays with message size; the
// repository design pays with online lookups and a single point of
// trust.
func RunKeyDistribution() (*Table, error) {
	const maxHops = 8
	t := &Table{
		ID:    "keydist",
		Title: "Key distribution: inline certificates vs trusted repository (§6.4)",
		Claim: "inline distribution offers a flexible trust framework; a repository needs a strong trust relationship and online lookups",
		Columns: []string{
			"path hops", "inline RAR bytes", "repo RAR bytes", "saved", "repo lookups at dest",
		},
	}
	for hops := 2; hops <= maxHops; hops += 2 {
		inline, err := keyDistWireSize(hops, false)
		if err != nil {
			return nil, err
		}
		lean, lookups, err := keyDistRepoRun(hops)
		if err != nil {
			return nil, err
		}
		t.AddRow(
			fmt.Sprintf("%d", hops),
			fmt.Sprintf("%d", inline),
			fmt.Sprintf("%d", lean),
			fmt.Sprintf("%.0f%%", 100*(1-float64(lean)/float64(inline))),
			fmt.Sprintf("%d", lookups),
		)
	}
	t.Notes = append(t.Notes,
		"the repository variant resolves every non-channel signer online; the paper prefers inline distribution because it \"offers a flexible framework for trust decisions\"",
	)
	return t, nil
}

func keyDistWireSize(hops int, omitCerts bool) (int, error) {
	w, err := BuildProtocolWorld(hops, false)
	if err != nil {
		return 0, err
	}
	if omitCerts {
		for _, b := range w.Brokers {
			b.OmitIntroducerCerts = true
		}
	}
	samples, err := w.Propagate(w.NewSpec())
	if err != nil {
		return 0, err
	}
	return samples[len(samples)-1].WireBytes, nil
}

func keyDistRepoRun(hops int) (wire int, lookups int64, err error) {
	w, err := BuildProtocolWorld(hops, false)
	if err != nil {
		return 0, 0, err
	}
	repoKey, err := identity.GenerateKeyPair(identity.NewDN("Grid", "", "repo"))
	if err != nil {
		return 0, 0, err
	}
	repo := certrepo.New(repoKey)
	if err := repo.Publish(w.User.Cert); err != nil {
		return 0, 0, err
	}
	for _, cert := range w.Certs {
		if err := repo.Publish(cert); err != nil {
			return 0, 0, err
		}
	}
	dir := &certrepo.Directory{Repo: repo, TrustedKey: repo.PublicKey()}
	for _, b := range w.Brokers {
		b.OmitIntroducerCerts = true
		b.Directory = dir
	}
	samples, err := w.Propagate(w.NewSpec())
	if err != nil {
		return 0, 0, err
	}
	return samples[len(samples)-1].WireBytes, repo.Lookups(), nil
}

// RunBilling demonstrates the transitive billing scheme of §6.4 on a
// measured flow: Alice's reservation carries traffic through the
// DiffServ simulator; the delivered bytes are settled along the
// signalling path, each domain billing its upstream neighbour and the
// source domain billing Alice.
func RunBilling() (*Table, error) {
	const duration = time.Second
	w, err := BuildWorld(WorldConfig{NumDomains: 3, Labels: []string{"DomainA", "DomainB", "DomainC"}})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	alice, err := w.NewUser("Alice", "DomainA", nil, nil)
	if err != nil {
		return nil, err
	}
	defer alice.Close()

	// Reserve 10 Mb/s covering "now" and run traffic through a
	// minimal A->C pipeline.
	spec := alice.NewSpec(SpecOptions{DestDomain: "DomainC", Bandwidth: 10_000_000})
	spec.Window.Start = w.clock().Add(-time.Minute)
	res, err := alice.ReserveE2E(spec)
	if err != nil {
		return nil, err
	}
	if !res.Granted {
		return nil, fmt.Errorf("billing setup reservation denied: %s", res.Reason)
	}

	sim, sink, marker := buildSimplePipeline(w, spec.RARID)
	src := netsim.NewSource(sim, netsim.FlowID(spec.RARID), spec.Bandwidth, 1250, marker)
	if err := src.Install(duration); err != nil {
		return nil, err
	}
	sim.Run(duration + 100*time.Millisecond)

	stats := sink.Stats(netsim.FlowID(spec.RARID))
	if stats == nil {
		return nil, fmt.Errorf("billing: no traffic delivered")
	}

	// Each domain's ledger records the carried bytes; settle the path.
	ledger := billing.NewLedger()
	if err := ledger.Record(spec.RARID, stats.RxBytes); err != nil {
		return nil, err
	}
	usage, _ := ledger.Usage(spec.RARID)
	parties := []billing.Party{
		{Domain: "DomainA", TransitRate: 100_000},
		{Domain: "DomainB", TransitRate: 50_000},
		{Domain: "DomainC", TransitRate: 200_000},
	}
	invoices, err := billing.SettlePath(parties, alice.DN(), usage)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "billing",
		Title: "Transitive billing along the reservation path (§6.4)",
		Claim: `"B as a transient domain would also bill traffic originating from a different domain using the related SLA. Finally, the source domain would bill the traffic against the originator."`,
		Columns: []string{
			"invoice", "bytes carried", "amount",
		},
	}
	for _, inv := range invoices {
		to := inv.To
		if to == "" {
			to = string(inv.ToUser)
		}
		t.AddRow(fmt.Sprintf("%s -> %s", inv.From, to), fmt.Sprintf("%d", inv.Bytes), inv.Amount.String())
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured delivery: %.2f Mb/s over %v; rates: A=0.10, B=0.05, C=0.20 per GB", stats.Goodput(duration)/1e6, duration),
		"each hop's invoice covers everything it owes downstream plus its own transit charge",
	)
	return t, nil
}

// buildSimplePipeline wires source-edge -> link -> sink and installs
// the flow's 10 Mb/s reservation profile at the edge (the reservation
// was granted before the data plane was attached, so the profile is
// programmed explicitly here).
func buildSimplePipeline(w *World, rarID string) (*dsim.Sim, *netsim.Sink, *netsim.EdgeMarker) {
	sim := dsim.New()
	sink := netsim.NewSink(sim)
	link := netsim.NewLink(sim, 100_000_000, sink)
	marker := netsim.NewEdgeMarker(sim, link)
	w.Planes["DomainA"].AttachEdge(marker)
	marker.InstallReservation(netsim.FlowID(rarID), sla.TrafficProfile{Rate: 10_000_000, BucketBytes: 30_000})
	return sim, sink, marker
}
