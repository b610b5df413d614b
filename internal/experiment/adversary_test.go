package experiment

import (
	"strings"
	"testing"

	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
	"e2eqos/internal/policy"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// TestDestinationRefusesCapabilityHeldByAnother: a source broker that
// forwards a user's capability re-delegated to some broker other than
// the destination hands the destination a chain that verifies against
// the CAS and satisfies its policy, but is not the destination's to
// use. The destination refuses it when it verifies the RAR, before
// policy or admission.
func TestDestinationRefusesCapabilityHeldByAnother(t *testing.T) {
	w, err := BuildWorld(WorldConfig{
		NumDomains: 2,
		Labels:     []string{"DomainA", "DomainB"},
		Policies: map[string]*policy.Policy{
			"DomainB": policy.MustParse("needs-capability", "allow if capability from \"ESnet\" and bw <= 10Mb/s\ndeny"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	src, dst := w.SourceDomain(), w.DestDomain()
	alice, err := w.NewUser("Alice", src, []string{"network-reservation"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	spec := alice.NewSpec(SpecOptions{DestDomain: dst, Bandwidth: 5 * units.Mbps})
	rarU, err := alice.buildRARFor(spec, src)
	if err != nil {
		t.Fatal(err)
	}

	// The source broker's layer, written by hand: everything Extend
	// writes, but the capability goes to a DN that is not the next hop.
	bbA := w.members[src][0].cfg
	userLayer, err := envelope.Unwrap(rarU, func(int, identity.DN, []byte) (identity.PublicKey, error) {
		return alice.Agent.Key.Public(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	caps, err := userLayer.Capabilities()
	if err != nil {
		t.Fatal(err)
	}
	other, err := identity.GenerateKeyPair(identity.NewDN("Grid", "DomainX", "bb"))
	if err != nil {
		t.Fatal(err)
	}
	delegated, err := pki.Delegate(caps[len(caps)-1], bbA.Key.DN, bbA.Key.Private, other.DN, other.Public(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rarA, err := envelope.Seal(bbA.Key, envelope.Body{
		Inner:           rarU,
		UpstreamCertDER: alice.Agent.Cert.DER,
		NextHopDN:       w.BBCerts[dst].SubjectDN(),
		CapabilityDERs:  [][]byte{delegated.DER},
	})
	if err != nil {
		t.Fatal(err)
	}

	c, err := signalling.Dial(w.Net.NewEndpoint(bbA.Key.DN, bbA.Cert.DER), w.BBAddr(dst))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, rarA)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(msg)
	if err != nil {
		t.Fatal(err)
	}
	if res := resp.Result; res == nil || res.Granted || !strings.Contains(res.Reason, "not delegated to this broker") {
		t.Fatalf("destination answered %+v, want a refusal naming the capability holder", res)
	}
	if got := w.BBs[dst].Table().CommittedAt(spec.Window.Start); got != 0 {
		t.Errorf("destination committed %v for a refused request", got)
	}
}
