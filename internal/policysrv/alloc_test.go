package policysrv

import (
	"reflect"
	"testing"

	"e2eqos/internal/policy"
	"e2eqos/internal/units"
)

// TestDecideAllocationFree: a query without group assertions or a
// capability chain, the one every hop of a plain reserve asks, allocates
// nothing when answered into the caller's Result. The policy request is
// built on the stack, which holds only while Evaluate keeps no pointer
// to it (it called each condition through the interface, and the
// request escaped: 2 objects a decision with the Result). The answer is
// Decide's, and a used Result is overwritten whole.
func TestDecideAllocationFree(t *testing.T) {
	for _, row := range []struct {
		pol *policy.Policy
		q   Query
	}{
		{policy.MustParse("default", policy.DefaultText), Query{User: alice, Bandwidth: units.Mbps, Available: 10 * units.Mbps, Window: window(12)}},
		{policy.Figure6PolicyA, Query{User: alice, Bandwidth: 10 * units.Mbps, Available: 100 * units.Mbps, Window: window(12)}},
		{policy.Figure6PolicyA, Query{User: bob, Bandwidth: units.Mbps, Available: 100 * units.Mbps}},
		{policy.Figure6PolicyC, Query{User: alice, Bandwidth: units.Mbps, Available: 100 * units.Mbps, Window: window(22),
			SourceDomain: "DomainA", DestDomain: "DomainC", LinkedReservations: map[string]bool{"cpu": true}}},
	} {
		s := New("DomainA", row.pol)
		s.SetClock(fixedClock())
		want, err := s.Decide(&row.q)
		if err != nil {
			t.Fatal(err)
		}
		res := Result{ValidatedGroups: []string{"stale"}, Capabilities: []policy.Capability{{Community: "stale"}}}
		if err := s.DecideInto(&row.q, &res); err != nil || !reflect.DeepEqual(&res, want) {
			t.Errorf("%s: DecideInto answered %+v (err %v), Decide %+v", row.pol.Name, res, err, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = s.DecideInto(&row.q, &res) }); allocs != 0 {
			t.Errorf("%s: a decision allocates %.1f objects, want 0", row.pol.Name, allocs)
		}
	}
}
