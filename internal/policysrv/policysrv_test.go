package policysrv

import (
	"testing"
	"time"

	"e2eqos/internal/cas"
	"e2eqos/internal/group"
	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
	"e2eqos/internal/policy"
	"e2eqos/internal/units"
)

var (
	alice = policy.AliceDN
	bob   = policy.BobDN
)

func fixedClock() func() time.Time {
	at := time.Date(2001, 8, 7, 12, 0, 0, 0, time.UTC) // business hours
	return func() time.Time { return at }
}

func window(hour int) units.Window {
	return units.NewWindow(time.Date(2001, 8, 7, hour, 0, 0, 0, time.UTC), time.Hour)
}

func TestDecideFigure6DomainA(t *testing.T) {
	s := New("DomainA", policy.Figure6PolicyA)
	s.SetClock(fixedClock())
	res, err := s.Decide(&Query{
		User:      alice,
		Bandwidth: 10 * units.Mbps,
		Available: 100 * units.Mbps,
		Window:    window(12),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.Granted() {
		t.Errorf("Alice 10Mb/s at noon denied: %s", res.Decision.Reason)
	}
	res, _ = s.Decide(&Query{User: alice, Bandwidth: 50 * units.Mbps, Available: 100 * units.Mbps, Window: window(12)})
	if res.Decision.Granted() {
		t.Error("Alice 50Mb/s during business hours granted")
	}
	res, _ = s.Decide(&Query{User: alice, Bandwidth: 50 * units.Mbps, Available: 100 * units.Mbps, Window: window(22)})
	if !res.Decision.Granted() {
		t.Errorf("Alice 50Mb/s at night denied: %s", res.Decision.Reason)
	}
	res, _ = s.Decide(&Query{User: bob, Bandwidth: 1 * units.Mbps, Available: 100 * units.Mbps, Window: window(12)})
	if res.Decision.Granted() {
		t.Error("Bob granted in domain A")
	}
}

func TestDecideValidatesAssertions(t *testing.T) {
	gs := group.NewServer()
	gs.AddMember("ATLAS experiment", alice)

	s := New("DomainB", policy.Figure6PolicyB)
	s.TrustGroupServer("ATLAS experiment", gs)

	q := &Query{User: alice, Bandwidth: 10 * units.Mbps, Assertions: []string{"ATLAS experiment"}}
	res, err := s.Decide(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.Granted() {
		t.Errorf("validated ATLAS member denied: %s", res.Decision.Reason)
	}
	if len(res.ValidatedGroups) != 1 || res.ValidatedGroups[0] != "ATLAS experiment" {
		t.Errorf("validated groups = %v", res.ValidatedGroups)
	}

	// Bob asserts the same group but is not a member: assertion ignored.
	res, _ = s.Decide(&Query{User: bob, Bandwidth: 10 * units.Mbps, Assertions: []string{"ATLAS experiment"}})
	if res.Decision.Granted() {
		t.Error("false assertion led to grant")
	}

	// Assertion for a group with no trusted server is ignored.
	res, _ = s.Decide(&Query{User: alice, Bandwidth: 10 * units.Mbps, Assertions: []string{"unknown-group"}})
	if res.Decision.Granted() {
		t.Error("unvalidatable assertion led to grant")
	}
}

func TestDecideVerifiesCapabilityChain(t *testing.T) {
	casKey, err := identity.GenerateKeyPair(identity.NewDN("ESnet", "", "CAS"))
	if err != nil {
		t.Fatal(err)
	}
	casSrv := cas.NewServer(casKey)
	casSrv.Grant(alice, "network-reservation")
	cred, err := casSrv.Login(alice)
	if err != nil {
		t.Fatal(err)
	}

	s := New("DomainB", policy.Figure6PolicyB)
	s.TrustCAS("ESnet", casSrv.Key().Public())
	res, err := s.Decide(&Query{
		User:            alice,
		Bandwidth:       10 * units.Mbps,
		CapabilityChain: pki.CapabilityChain{cred.Certificate},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.Granted() {
		t.Errorf("ESnet capability holder denied: %s", res.Decision.Reason)
	}
	if len(res.Capabilities) != 1 || res.Capabilities[0].Community != "ESnet" {
		t.Errorf("capabilities = %+v", res.Capabilities)
	}

	// Without a trusted CAS key the chain is ignored.
	s2 := New("DomainB", policy.Figure6PolicyB)
	res, _ = s2.Decide(&Query{User: alice, Bandwidth: 10 * units.Mbps, CapabilityChain: pki.CapabilityChain{cred.Certificate}})
	if res.Decision.Granted() {
		t.Error("capability from untrusted CAS led to grant")
	}
}

func TestDecideLinkedReservationsFigure6C(t *testing.T) {
	casKey, err := identity.GenerateKeyPair(identity.NewDN("ESnet", "", "CAS"))
	if err != nil {
		t.Fatal(err)
	}
	casSrv := cas.NewServer(casKey)
	casSrv.Grant(alice, "network-reservation")
	cred, err := casSrv.Login(alice)
	if err != nil {
		t.Fatal(err)
	}

	s := New("DomainC", policy.Figure6PolicyC)
	s.TrustCAS("ESnet", casSrv.Key().Public())

	base := Query{
		User:            alice,
		Bandwidth:       10 * units.Mbps,
		CapabilityChain: pki.CapabilityChain{cred.Certificate},
	}
	q := base
	q.LinkedReservations = map[string]bool{"cpu": true}
	res, err := s.Decide(&q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.Granted() {
		t.Errorf("capability + CPU reservation denied: %s", res.Decision.Reason)
	}
	res, _ = s.Decide(&base) // no CPU reservation
	if res.Decision.Granted() {
		t.Error(">5Mb/s without CPU reservation granted")
	}
	small := base
	small.Bandwidth = 4 * units.Mbps
	small.CapabilityChain = nil
	res, _ = s.Decide(&small)
	if !res.Decision.Granted() {
		t.Errorf("<5Mb/s denied: %s", res.Decision.Reason)
	}
}

func TestDecideNilQuery(t *testing.T) {
	s := New("DomainA", policy.MustParse("t", "allow"))
	if _, err := s.Decide(nil); err == nil {
		t.Fatal("nil query accepted")
	}
}

func TestWindowStartGovernsTimeOfDay(t *testing.T) {
	// Policy allows only business hours; the decision must be based on
	// the reservation window start, not the wall clock.
	s := New("DomainA", policy.MustParse("t", `
allow if time within 08:00..17:00
deny
`))
	s.SetClock(func() time.Time { return time.Date(2001, 8, 7, 23, 0, 0, 0, time.UTC) })
	res, err := s.Decide(&Query{User: alice, Bandwidth: units.Mbps, Window: window(12)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Decision.Granted() {
		t.Error("daytime reservation denied because of nighttime wall clock")
	}
}
