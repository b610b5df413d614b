package policy

import (
	"fmt"
	"testing"

	"e2eqos/internal/units"
)

// TestEvaluateAllocationFree: a decision formats nothing. Each rule's
// reason is written once, at Parse, and reads exactly as the per-call
// "rule %d: %s" did, so traces, renders and denial texts are unchanged;
// evaluating allocates no object, whichever rule matches or none does
// (2 per decision were measured when Evaluate formatted its reason).
func TestEvaluateAllocationFree(t *testing.T) {
	p := MustParse("every-condition", `
deny  if user = "/CN=Mallory"
allow if capability from "ESnet" and bw <= 10Mb/s
allow if group = "ATLAS" and time within 08:00..18:00
allow if has cpu-reservation and not user != "/CN=Alice"
allow if source = "DomainA" and dest = "DomainC" and bw <= avail
`)
	for _, pol := range []*Policy{p, Figure1PolicyA, Figure1PolicyB, Figure6PolicyA, Figure6PolicyB, Figure6PolicyC} {
		for i, ru := range pol.Rules {
			if want := fmt.Sprintf("rule %d: %s", i+1, ru.Source); ru.reason != want {
				t.Errorf("%s: rule %d's reason is %q, want %q", pol.Name, i+1, ru.reason, want)
			}
		}
	}
	cases := []struct {
		req    Request
		reason string
	}{
		{Request{User: "/CN=Mallory"}, `rule 1: deny  if user = "/CN=Mallory"`},
		{Request{User: "/CN=Bob", Capabilities: []Capability{{Community: "ESnet"}}, Bandwidth: 5 * units.Mbps},
			`rule 2: allow if capability from "ESnet" and bw <= 10Mb/s`},
		{Request{User: "/CN=Bob", Groups: []string{"ATLAS"}, Time: at(9, 0)},
			`rule 3: allow if group = "ATLAS" and time within 08:00..18:00`},
		{Request{User: "/CN=Alice", LinkedReservations: map[string]bool{"cpu": true}},
			`rule 4: allow if has cpu-reservation and not user != "/CN=Alice"`},
		{Request{SourceDomain: "DomainA", DestDomain: "DomainC", Bandwidth: units.Mbps, Available: 2 * units.Mbps},
			`rule 5: allow if source = "DomainA" and dest = "DomainC" and bw <= avail`},
		{Request{User: "/CN=Bob"}, "no matching rule (implicit deny)"},
	}
	for _, c := range cases {
		if got := p.Evaluate(&c.req).Reason; got != c.reason {
			t.Errorf("reason %q, want %q", got, c.reason)
		}
		if allocs := testing.AllocsPerRun(100, func() { p.Evaluate(&c.req) }); allocs != 0 {
			t.Errorf("%s: a decision allocates %.1f objects, want 0", c.reason, allocs)
		}
	}
}
