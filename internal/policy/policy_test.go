package policy

import (
	"strings"
	"testing"
	"time"

	"e2eqos/internal/units"
)

func at(hour, min int) time.Time {
	return time.Date(2001, 8, 7, hour, min, 0, 0, time.UTC)
}

func TestParseSimpleRules(t *testing.T) {
	p, err := Parse("t", `
# comment line
allow if user = "/CN=Alice" and bw <= 10Mb/s
deny  if user = "/CN=Bob"    # trailing comment
allow if group = "ATLAS"
deny
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 4 {
		t.Fatalf("rules = %d, want 4", len(p.Rules))
	}
	if p.Rules[0].Effect != Grant || p.Rules[3].Effect != Deny {
		t.Error("rule effects wrong")
	}
	if len(p.Rules[0].Conditions) != 2 {
		t.Errorf("rule 1 conditions = %d, want 2", len(p.Rules[0].Conditions))
	}
	if len(p.Rules[3].Conditions) != 0 {
		t.Error("bare deny must have no conditions")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`grant if user = "/CN=A"`,       // wrong keyword
		`allow user = "/CN=A"`,          // missing if
		`allow if user ~ "/CN=A"`,       // bad operator
		`allow if user = /CN=A`,         // unquoted DN
		`allow if bw <= notabandwidth`,  // bad bandwidth
		`allow if time within 8am..5pm`, // bad clock
		`allow if time within 25:00..26:00`,
		`allow if has reservation`,   // missing -reservation suffix
		`allow if wibble = "x"`,      // unknown condition
		`allow if user = "unterm`,    // unterminated string
		`allow if bw <= 10Mb/s or x`, // 'or' unsupported
		`allow if`,                   // dangling if
	}
	for _, src := range bad {
		if _, err := Parse("t", src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestEvaluateFirstMatchWins(t *testing.T) {
	p := MustParse("t", `
deny  if user = "/CN=Bob"
allow
`)
	d := p.Evaluate(&Request{User: "/CN=Bob"})
	if d.Granted() || !strings.HasPrefix(d.Reason, "rule 1:") {
		t.Errorf("Bob: %+v", d)
	}
	d = p.Evaluate(&Request{User: "/CN=Alice"})
	if !d.Granted() || !strings.HasPrefix(d.Reason, "rule 2:") {
		t.Errorf("Alice: %+v", d)
	}
}

func TestImplicitDeny(t *testing.T) {
	p := MustParse("t", `allow if user = "/CN=Alice"`)
	d := p.Evaluate(&Request{User: "/CN=Mallory"})
	if d.Granted() {
		t.Errorf("implicit deny: %+v", d)
	}
	if !strings.Contains(d.Reason, "implicit") {
		t.Errorf("reason = %q", d.Reason)
	}
}

func TestNilRequestDenied(t *testing.T) {
	p := MustParse("t", `allow`)
	if p.Evaluate(nil).Granted() {
		t.Fatal("nil request granted")
	}
}

func TestBandwidthConditions(t *testing.T) {
	p := MustParse("t", `
allow if bw <= 10Mb/s
allow if bw <= avail
deny
`)
	cases := []struct {
		bw, avail units.Bandwidth
		want      bool
	}{
		{10 * units.Mbps, 0, true},                // at limit
		{10*units.Mbps + 1, 0, false},             // just above, no avail headroom
		{50 * units.Mbps, 100 * units.Mbps, true}, // avail covers it
		{50 * units.Mbps, 40 * units.Mbps, false},
	}
	for _, c := range cases {
		d := p.Evaluate(&Request{User: "/CN=x", Bandwidth: c.bw, Available: c.avail, Time: at(12, 0)})
		if d.Granted() != c.want {
			t.Errorf("bw=%v avail=%v: granted=%v, want %v (%s)", c.bw, c.avail, d.Granted(), c.want, d.Reason)
		}
	}
}

func TestTimeWindow(t *testing.T) {
	p := MustParse("t", `
allow if time within 08:00..17:00
deny
`)
	if !p.Evaluate(&Request{Time: at(8, 0)}).Granted() {
		t.Error("08:00 must be inside")
	}
	if !p.Evaluate(&Request{Time: at(16, 59)}).Granted() {
		t.Error("16:59 must be inside")
	}
	if p.Evaluate(&Request{Time: at(17, 0)}).Granted() {
		t.Error("17:00 must be outside (half-open)")
	}
	if p.Evaluate(&Request{Time: at(7, 59)}).Granted() {
		t.Error("07:59 must be outside")
	}
	// The rule reads the instant, not the zone it was written in: 22:00
	// UTC is outside the window however the requester spells it.
	night := at(22, 0)
	for _, zone := range []*time.Location{time.FixedZone("+10:00", 10*3600), time.FixedZone("-09:00", -9*3600)} {
		if spelled := night.In(zone); p.Evaluate(&Request{Time: spelled}).Granted() {
			t.Errorf("22:00 UTC written as %s got inside 08:00..17:00", spelled.Format(time.RFC3339))
		}
	}
}

func TestTimeWindowWrapsMidnight(t *testing.T) {
	p := MustParse("t", `
allow if time within 22:00..06:00
deny
`)
	if !p.Evaluate(&Request{Time: at(23, 0)}).Granted() {
		t.Error("23:00 must be inside")
	}
	if !p.Evaluate(&Request{Time: at(3, 0)}).Granted() {
		t.Error("03:00 must be inside")
	}
	if p.Evaluate(&Request{Time: at(12, 0)}).Granted() {
		t.Error("12:00 must be outside")
	}
}

func TestNotCondition(t *testing.T) {
	p := MustParse("t", `
allow if not time within 08:00..17:00
deny
`)
	if p.Evaluate(&Request{Time: at(12, 0)}).Granted() {
		t.Error("noon must be denied")
	}
	if !p.Evaluate(&Request{Time: at(20, 0)}).Granted() {
		t.Error("evening must be granted")
	}
}

func TestGroupAndCapabilityConditions(t *testing.T) {
	p := MustParse("t", `
allow if group = "ATLAS experiment" and bw <= 10Mb/s
allow if capability from "ESnet" and bw <= 10Mb/s
deny
`)
	atlas := &Request{Groups: []string{"ATLAS experiment"}, Bandwidth: 5 * units.Mbps}
	if !p.Evaluate(atlas).Granted() {
		t.Error("ATLAS member denied")
	}
	esnet := &Request{Capabilities: []Capability{{Community: "ESnet"}}, Bandwidth: 5 * units.Mbps}
	if d := p.Evaluate(esnet); !d.Granted() || !strings.HasPrefix(d.Reason, "rule 2:") {
		t.Errorf("ESnet holder: %+v", d)
	}
	nobody := &Request{Bandwidth: 5 * units.Mbps}
	if p.Evaluate(nobody).Granted() {
		t.Error("unauthorized requestor granted")
	}
	tooMuch := &Request{Groups: []string{"ATLAS experiment"}, Bandwidth: 20 * units.Mbps}
	if p.Evaluate(tooMuch).Granted() {
		t.Error("over-limit request granted")
	}
}

func TestLinkedReservationCondition(t *testing.T) {
	p := MustParse("t", `
allow if has cpu-reservation
deny
`)
	with := &Request{LinkedReservations: map[string]bool{"cpu": true}}
	without := &Request{}
	if !p.Evaluate(with).Granted() {
		t.Error("linked CPU reservation not recognised")
	}
	if p.Evaluate(without).Granted() {
		t.Error("missing CPU reservation granted")
	}
}

// TestDomainAndAttrConditions: source and dest conditions decide on
// the flow's end domains, and a policy naming an attr condition is
// refused by name — no broker supplies attributes, so such a rule
// could only ever fail to match, and a "deny if attr" would never deny.
func TestDomainAndAttrConditions(t *testing.T) {
	p := MustParse("t", `
allow if source = "DomainA" and dest = "DomainC"
deny
`)
	if !p.Evaluate(&Request{SourceDomain: "DomainA", DestDomain: "DomainC"}).Granted() {
		t.Error("matching request denied")
	}
	if p.Evaluate(&Request{SourceDomain: "DomainA", DestDomain: "DomainB"}).Granted() {
		t.Error("wrong destination granted")
	}
	for _, src := range []string{
		`allow if dest = "DomainC" and attr "cost-class" = "premium"`,
		`deny if attr "role" = "student"`,
		`allow if not attr "k" = "v"`,
	} {
		if _, err := Parse("t", src); err == nil || !strings.Contains(err.Error(), `"attr"`) {
			t.Errorf("Parse(%q) = %v, want an error naming attr", src, err)
		}
	}
}

func TestUserNegation(t *testing.T) {
	p := MustParse("t", `
allow if user != "/CN=Bob"
deny
`)
	if p.Evaluate(&Request{User: "/CN=Bob"}).Granted() {
		t.Error("Bob granted")
	}
	if !p.Evaluate(&Request{User: "/CN=Alice"}).Granted() {
		t.Error("Alice denied")
	}
}

// --- Figure 1 --------------------------------------------------------------

func TestFigure1PolicyA(t *testing.T) {
	if !Figure1PolicyA.Evaluate(&Request{User: AliceDN}).Granted() {
		t.Error("Figure 1: Alice must be granted in domain A")
	}
	if Figure1PolicyA.Evaluate(&Request{User: BobDN}).Granted() {
		t.Error("Figure 1: Bob must be denied in domain A")
	}
	if Figure1PolicyA.Evaluate(&Request{User: CharlieDN}).Granted() {
		t.Error("Figure 1: unknown users must be denied in domain A")
	}
}

func TestFigure1PolicyB(t *testing.T) {
	phys := &Request{User: CharlieDN, Groups: []string{"physicist"}}
	if !Figure1PolicyB.Evaluate(phys).Granted() {
		t.Error("Figure 1: accredited physicist must be granted in domain B")
	}
	if Figure1PolicyB.Evaluate(&Request{User: AliceDN}).Granted() {
		t.Error("Figure 1: non-physicist must be denied in domain B")
	}
}

// --- Figure 6 --------------------------------------------------------------

func TestFigure6PolicyA(t *testing.T) {
	business := at(12, 0)
	night := at(22, 0)
	cases := []struct {
		name string
		req  Request
		want bool
	}{
		{"alice 10M business", Request{User: AliceDN, Bandwidth: 10 * units.Mbps, Time: business, Available: 100 * units.Mbps}, true},
		{"alice 11M business", Request{User: AliceDN, Bandwidth: 11 * units.Mbps, Time: business, Available: 100 * units.Mbps}, false},
		{"alice 80M night", Request{User: AliceDN, Bandwidth: 80 * units.Mbps, Time: night, Available: 100 * units.Mbps}, true},
		{"alice 120M night over avail", Request{User: AliceDN, Bandwidth: 120 * units.Mbps, Time: night, Available: 100 * units.Mbps}, false},
		{"bob any", Request{User: BobDN, Bandwidth: 1 * units.Mbps, Time: night, Available: 100 * units.Mbps}, false},
	}
	for _, c := range cases {
		if got := Figure6PolicyA.Evaluate(&c.req).Granted(); got != c.want {
			t.Errorf("Figure6PolicyA %s: granted=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestFigure6PolicyB(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want bool
	}{
		{"atlas 10M", Request{User: AliceDN, Groups: []string{"ATLAS experiment"}, Bandwidth: 10 * units.Mbps}, true},
		{"atlas 11M", Request{User: AliceDN, Groups: []string{"ATLAS experiment"}, Bandwidth: 11 * units.Mbps}, false},
		{"esnet 10M", Request{User: AliceDN, Capabilities: []Capability{{Community: "ESnet"}}, Bandwidth: 10 * units.Mbps}, true},
		{"nobody", Request{User: AliceDN, Bandwidth: 1 * units.Mbps}, false},
	}
	for _, c := range cases {
		if got := Figure6PolicyB.Evaluate(&c.req).Granted(); got != c.want {
			t.Errorf("Figure6PolicyB %s: granted=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestFigure6PolicyC(t *testing.T) {
	esnet := []Capability{{Community: "ESnet"}}
	cpu := map[string]bool{"cpu": true}
	cases := []struct {
		name string
		req  Request
		want bool
	}{
		{"10M esnet+cpu", Request{Bandwidth: 10 * units.Mbps, Capabilities: esnet, LinkedReservations: cpu}, true},
		{"10M esnet only", Request{Bandwidth: 10 * units.Mbps, Capabilities: esnet}, false},
		{"10M cpu only", Request{Bandwidth: 10 * units.Mbps, LinkedReservations: cpu}, false},
		{"4M nobody", Request{Bandwidth: 4 * units.Mbps}, true},
		{"5M nobody", Request{Bandwidth: 5 * units.Mbps}, false},
	}
	for _, c := range cases {
		if got := Figure6PolicyC.Evaluate(&c.req).Granted(); got != c.want {
			t.Errorf("Figure6PolicyC %s: granted=%v, want %v", c.name, got, c.want)
		}
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	src := `allow if user = "/CN=Alice" and bw <= 10Mb/s
deny`
	p := MustParse("t", src)
	p2, err := Parse("t2", p.String())
	if err != nil {
		t.Fatalf("re-parse of String() failed: %v\n%s", err, p.String())
	}
	if len(p2.Rules) != len(p.Rules) {
		t.Fatalf("rule count changed: %d -> %d", len(p.Rules), len(p2.Rules))
	}
	req := &Request{User: "/CN=Alice", Bandwidth: 5 * units.Mbps}
	if p.Evaluate(req).Granted() != p2.Evaluate(req).Granted() {
		t.Fatal("round-tripped policy decides differently")
	}
}

func TestConditionStrings(t *testing.T) {
	p := MustParse("t", `
allow if user = "/CN=A" and group = "g" and capability from "E" and bw <= 10Mb/s and time within 08:00..17:00 and has cpu-reservation and dest = "D" and not bw <= avail
`)
	for _, c := range p.Rules[0].Conditions {
		if c.String() == "" {
			t.Errorf("condition %T renders empty", c)
		}
	}
}
