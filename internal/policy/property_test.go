package policy

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
)

// genRule builds a random but well-formed DSL rule.
func genRule(rng *rand.Rand) string {
	action := "allow"
	if rng.Intn(2) == 0 {
		action = "deny"
	}
	nConds := rng.Intn(4)
	if nConds == 0 {
		return action
	}
	var conds []string
	for i := 0; i < nConds; i++ {
		var c string
		switch rng.Intn(8) {
		case 0:
			c = fmt.Sprintf("user = %q", fmt.Sprintf("/O=Grid/CN=user%d", rng.Intn(5)))
		case 1:
			c = fmt.Sprintf("user != %q", fmt.Sprintf("/O=Grid/CN=user%d", rng.Intn(5)))
		case 2:
			c = fmt.Sprintf("group = %q", fmt.Sprintf("group%d", rng.Intn(3)))
		case 3:
			c = fmt.Sprintf("capability from %q", fmt.Sprintf("community%d", rng.Intn(3)))
		case 4:
			ops := []string{"<", "<=", ">", ">=", "="}
			c = fmt.Sprintf("bw %s %dMb/s", ops[rng.Intn(len(ops))], 1+rng.Intn(100))
		case 5:
			h1, h2 := rng.Intn(24), rng.Intn(24)
			c = fmt.Sprintf("time within %02d:%02d..%02d:%02d", h1, rng.Intn(60), h2, rng.Intn(60))
		case 6:
			c = "has cpu-reservation"
		case 7:
			c = fmt.Sprintf("dest = %q", fmt.Sprintf("Domain%d", rng.Intn(4)))
		}
		if rng.Intn(4) == 0 {
			c = "not " + c
		}
		conds = append(conds, c)
	}
	return action + " if " + strings.Join(conds, " and ")
}

func genRequest(rng *rand.Rand) *Request {
	req := &Request{
		User:       identity.DN(fmt.Sprintf("/O=Grid/CN=user%d", rng.Intn(5))),
		Bandwidth:  units.Bandwidth(1+rng.Intn(100)) * units.Mbps,
		Available:  units.Bandwidth(rng.Intn(200)) * units.Mbps,
		Time:       time.Date(2001, 8, 7, rng.Intn(24), rng.Intn(60), 0, 0, time.UTC),
		DestDomain: fmt.Sprintf("Domain%d", rng.Intn(4)),
	}
	for i := 0; i < rng.Intn(3); i++ {
		req.Groups = append(req.Groups, fmt.Sprintf("group%d", rng.Intn(3)))
	}
	if rng.Intn(2) == 0 {
		req.Capabilities = append(req.Capabilities, Capability{Community: fmt.Sprintf("community%d", rng.Intn(3))})
	}
	if rng.Intn(2) == 0 {
		req.LinkedReservations = map[string]bool{"cpu": true}
	}
	return req
}

// TestParserRoundTripProperty: for random policies, re-parsing the
// String() rendering yields a policy that decides identically on
// random requests.
func TestParserRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20010807))
	for trial := 0; trial < 200; trial++ {
		var lines []string
		for i := 0; i < 1+rng.Intn(6); i++ {
			lines = append(lines, genRule(rng))
		}
		src := strings.Join(lines, "\n")
		p1, err := Parse("gen", src)
		if err != nil {
			t.Fatalf("generated policy failed to parse: %v\n%s", err, src)
		}
		p2, err := Parse("gen2", p1.String())
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\n%s", err, p1.String())
		}
		for q := 0; q < 20; q++ {
			req := genRequest(rng)
			d1 := p1.Evaluate(req)
			d2 := p2.Evaluate(req)
			if d1 != d2 {
				t.Fatalf("round-tripped policy diverged on %+v:\n%s\n-> %+v vs %+v", req, src, d1, d2)
			}
		}
	}
}

// TestEvaluateTotalProperty: evaluation never panics and always
// returns a definite effect for arbitrary requests against arbitrary
// generated policies.
func TestEvaluateTotalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		var lines []string
		for i := 0; i < rng.Intn(5); i++ {
			lines = append(lines, genRule(rng))
		}
		p, err := Parse("gen", strings.Join(lines, "\n"))
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 10; q++ {
			d := p.Evaluate(genRequest(rng))
			if d.Effect != Grant && d.Effect != Deny {
				t.Fatalf("indefinite effect %v", d.Effect)
			}
		}
	}
}
