package experiment

import (
	"strings"
	"time"

	"e2eqos/internal/policy"
	"e2eqos/internal/resv"
	"e2eqos/internal/units"
)

// RunFigure1 reproduces Figure 1: different domains enforce different
// reservation policies over the same principals. Domain A admits
// Alice and rejects Bob by name; domain B admits anyone a third party
// accredits as a physicist.
func RunFigure1() *Table {
	t := &Table{
		ID:    "fig1",
		Title: "Policy heterogeneity across domains (Figure 1)",
		Claim: `"Alice can use the network, Bob cannot" in domain A; "only accredited physicists can use the network" in domain B`,
		Columns: []string{
			"principal", "attributes", "domain A", "domain B",
		},
	}
	at := time.Date(2001, 8, 7, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name   string
		user   policy.Request
		attrso string
	}{
		{"Alice", policy.Request{User: policy.AliceDN, Time: at}, "-"},
		{"Bob", policy.Request{User: policy.BobDN, Time: at}, "-"},
		{"Charlie (physicist)", policy.Request{User: policy.CharlieDN, Groups: []string{"physicist"}, Time: at}, "group=physicist"},
		{"Alice (physicist)", policy.Request{User: policy.AliceDN, Groups: []string{"physicist"}, Time: at}, "group=physicist"},
		{"David", policy.Request{User: policy.DavidDN, Time: at}, "-"},
	}
	for _, c := range cases {
		req := c.user
		req.Bandwidth = 10 * units.Mbps
		req.Available = 100 * units.Mbps
		a := policy.Figure1PolicyA.Evaluate(&req)
		b := policy.Figure1PolicyB.Evaluate(&req)
		t.AddRow(c.name, c.attrso, a.Effect.String(), b.Effect.String())
	}
	t.Notes = append(t.Notes,
		"the same request meets opposite decisions in different domains, motivating per-domain policy evaluation during signalling")
	return t
}

// RunFigure6 reproduces Figure 6's three policy files end to end: each
// row is one request variant propagated hop-by-hop through DomainA ->
// DomainB -> DomainC with the exact policies from the figure.
func RunFigure6() (*Table, error) {
	t := &Table{
		ID:    "fig6",
		Title: "Per-BB policy enforcement along the path (Figure 6)",
		Claim: "each BB evaluates each request with respect to its local policy file; all three must grant",
		Columns: []string{
			"requestor", "bw", "time", "capability", "cpu-resv", "decision", "denied-by",
		},
	}
	w, err := BuildWorld(WorldConfig{
		NumDomains: 3,
		Labels:     []string{"DomainA", "DomainB", "DomainC"},
		Capacity:   100 * units.Mbps,
		Policies: map[string]*policy.Policy{
			"DomainA": policy.Figure6PolicyA,
			"DomainB": policy.Figure6PolicyB,
			"DomainC": policy.Figure6PolicyC,
		},
		TrustedGroups: []string{"ATLAS experiment"},
		Pools:         map[string]map[string]units.Bandwidth{"DomainC": {"cpu": 16}},
	})
	if err != nil {
		return nil, err
	}
	defer w.Close()

	alice, err := w.NewUser("Alice", "DomainA", []string{"network-reservation"}, nil)
	if err != nil {
		return nil, err
	}
	defer alice.Close()
	bob, err := w.NewUser("Bob", "DomainA", []string{"network-reservation"}, nil)
	if err != nil {
		return nil, err
	}
	defer bob.Close()
	// A second Alice holds no capability but is enrolled in the ATLAS
	// experiment, the group arm of BB-B's policy.
	atlas, err := w.NewUser("Alice", "DomainA", nil, []string{"ATLAS experiment"})
	if err != nil {
		return nil, err
	}
	defer atlas.Close()

	now := w.clock()
	day := time.Date(now.Year(), now.Month(), now.Day(), 12, 0, 0, 0, time.UTC).AddDate(0, 0, 1)
	night := time.Date(now.Year(), now.Month(), now.Day(), 22, 0, 0, 0, time.UTC).AddDate(0, 0, 1)

	// cpuHolder, when set, holds the CPU reservation at DomainC that the
	// request links; only the requester's own counts.
	type variant struct {
		label     string
		user      *User
		bw        units.Bandwidth
		start     time.Time
		cpuHolder *User
	}
	variants := []variant{
		{"Alice", alice, 10 * units.Mbps, day, alice},
		{"Alice", alice, 10 * units.Mbps, day, nil},
		{"Alice", alice, 4 * units.Mbps, day, nil},
		{"Alice", alice, 20 * units.Mbps, day, alice},   // over A's business-hours cap
		{"Alice", alice, 20 * units.Mbps, night, alice}, // night: A allows, B caps at 10
		{"Bob", bob, 10 * units.Mbps, day, bob},
		{"Alice", alice, 10 * units.Mbps, day, bob}, // Bob's handle backs nothing of Alice's
		{"Alice (ATLAS)", atlas, 4 * units.Mbps, day, nil},
		{"Alice (ATLAS)", atlas, 10 * units.Mbps, day, atlas}, // C wants a capability at 5 Mb/s
	}
	for _, v := range variants {
		win := units.NewWindow(v.start, time.Hour)
		linked := map[string]string(nil)
		cpuCell := "no"
		if v.cpuHolder != nil {
			r, err := w.Pools["DomainC"]["cpu"].Admit(resv.AdmitRequest{User: v.cpuHolder.DN(), Bandwidth: 1, Window: win})
			if err != nil {
				return nil, err
			}
			linked = map[string]string{"cpu": r.Handle}
			cpuCell = "yes"
			if v.cpuHolder != v.user {
				cpuCell = v.cpuHolder.DN().CommonName() + "'s"
			}
		}
		spec := v.user.NewSpec(SpecOptions{
			DestDomain: "DomainC",
			Bandwidth:  v.bw,
			Window:     win,
			Linked:     linked,
		})
		capability := "ESnet"
		if v.user == atlas {
			capability = "none"
			spec.Assertions = []string{"ATLAS experiment"}
		}
		res, err := v.user.ReserveE2E(spec)
		if err != nil {
			return nil, err
		}
		decision, deniedBy := "GRANT", "-"
		if !res.Granted {
			decision = "DENY"
			deniedBy = denierOf(res.Reason)
		} else {
			// Clean up so variants do not interfere.
			_ = v.user.Cancel("DomainA", spec.RARID)
		}
		timeCell := "12:00"
		if v.start.Hour() == 22 {
			timeCell = "22:00"
		}
		t.AddRow(v.label, v.bw.String(), timeCell, capability, cpuCell, decision, deniedBy)
	}
	return t, nil
}

// denierOf extracts the domain named in a denial reason.
func denierOf(reason string) string {
	for _, dom := range []string{"DomainA", "DomainB", "DomainC"} {
		if strings.Contains(reason, dom) {
			return dom
		}
	}
	return "?"
}
