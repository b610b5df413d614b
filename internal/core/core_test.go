package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/cas"
	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
	"e2eqos/internal/units"
)

// world is the Figure 7 fixture: one CA per domain, a CAS, the user
// Alice in domain A and brokers A, B, C in a chain. Each broker pins
// only its immediate peers (SLA relationships); C has no direct trust
// in A or the user.
type world struct {
	cas     *cas.Server
	alice   *UserAgent
	brokers []*Broker // A, B, C
	certs   []*pki.Certificate
	cas0    *cas.Credential
}

func buildWorld(t *testing.T, withCapability bool) *world {
	t.Helper()
	w := &world{}

	casKey, err := identity.GenerateKeyPair(identity.NewDN("ESnet", "", "CAS"))
	if err != nil {
		t.Fatal(err)
	}
	w.cas = cas.NewServer(casKey)

	// Each domain runs its own CA: no shared roots between A and C.
	names := []string{"DomainA", "DomainB", "DomainC"}
	keys := make([]*identity.KeyPair, 3)
	for i, dom := range names {
		ca, err := pki.NewCA(identity.NewDN("Grid", dom, "CA"))
		if err != nil {
			t.Fatal(err)
		}
		key, err := identity.GenerateKeyPair(identity.NewDN("Grid", dom, "bb"))
		if err != nil {
			t.Fatal(err)
		}
		cert, err := ca.IssueIdentity(key.DN, key.Public(), 0, "bb")
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
		w.certs = append(w.certs, cert)
		if i == 0 {
			// Alice lives in domain A; her cert comes from A's CA.
			ak, err := identity.GenerateKeyPair(identity.NewDN("Grid", "DomainA", "Alice"))
			if err != nil {
				t.Fatal(err)
			}
			acert, err := ca.IssueIdentity(ak.DN, ak.Public(), 0)
			if err != nil {
				t.Fatal(err)
			}
			var cred *cas.Credential
			if withCapability {
				w.cas.Grant(ak.DN, "network-reservation")
				cred, err = w.cas.Login(ak.DN)
				if err != nil {
					t.Fatal(err)
				}
				w.cas0 = cred
			}
			ua, err := NewUserAgent(ak, acert, cred)
			if err != nil {
				t.Fatal(err)
			}
			w.alice = ua
			// A's broker trusts its home CA directly (for local users).
			trust := pki.NewTrustStore(8)
			if err := trust.AddRoot(&pki.Certificate{Cert: ca.Certificate(), DER: ca.CertificateDER()}); err != nil {
				t.Fatal(err)
			}
			bb, err := NewBroker(key, cert, trust)
			if err != nil {
				t.Fatal(err)
			}
			w.brokers = append(w.brokers, bb)
			continue
		}
		trust := pki.NewTrustStore(8)
		bb, err := NewBroker(key, cert, trust)
		if err != nil {
			t.Fatal(err)
		}
		w.brokers = append(w.brokers, bb)
	}
	// Pin SLA peers: A<->B, B<->C.
	w.brokers[0].Trust.PinPeer(keys[1].DN, keys[1].Public())
	w.brokers[1].Trust.PinPeer(keys[0].DN, keys[0].Public())
	w.brokers[1].Trust.PinPeer(keys[2].DN, keys[2].Public())
	w.brokers[2].Trust.PinPeer(keys[1].DN, keys[1].Public())
	return w
}

func testSpec(user identity.DN) *Spec {
	return &Spec{
		RARID:        NewRARID(),
		User:         user,
		SrcHost:      "hostA.example",
		DstHost:      "hostC.example",
		SourceDomain: "DomainA",
		DestDomain:   "DomainC",
		Bandwidth:    10 * units.Mbps,
		Window:       units.NewWindow(time.Now().Add(time.Minute), time.Hour),
		Assertions:   []string{"ATLAS experiment"},
	}
}

// propagate runs the full A -> B -> C signalling flow and returns C's
// verified view.
func propagate(t *testing.T, w *world, spec *Spec) (*VerifiedRequest, *envelope.Envelope) {
	t.Helper()
	now := time.Now()
	rarU, err := w.alice.BuildRAR(spec, w.certs[0])
	if err != nil {
		t.Fatal(err)
	}
	// BB-A verifies the user's request received over the authenticated
	// user<->BB-A channel.
	vA, err := w.brokers[0].Verify(rarU, w.alice.Key.DN, w.alice.Cert.DER, now)
	if err != nil {
		t.Fatalf("BB-A verify: %v", err)
	}
	rarA, err := w.brokers[0].Extend(rarU, w.alice.Cert.DER, vA, w.certs[1], &Additions{Claim: "DomainA-1", PolicyInfo: map[string]string{"te.param": "from-A"}})
	if err != nil {
		t.Fatal(err)
	}
	vB, err := w.brokers[1].Verify(rarA, w.brokers[0].DN(), w.certs[0].DER, now)
	if err != nil {
		t.Fatalf("BB-B verify: %v", err)
	}
	rarB, err := w.brokers[1].Extend(rarA, w.certs[0].DER, vB, w.certs[2], &Additions{Claim: "DomainB-1", PolicyInfo: map[string]string{"sls.excess": "remark"}})
	if err != nil {
		t.Fatal(err)
	}
	vC, err := w.brokers[2].Verify(rarB, w.brokers[1].DN(), w.certs[1].DER, now)
	if err != nil {
		t.Fatalf("BB-C verify: %v", err)
	}
	return vC, rarB
}

func TestEndToEndPropagation(t *testing.T) {
	w := buildWorld(t, true)
	spec := testSpec(w.alice.Key.DN)
	vC, _ := propagate(t, w, spec)

	if vC.Spec.RARID != spec.RARID || vC.Spec.Bandwidth != spec.Bandwidth {
		t.Errorf("spec mutated in flight: %+v", vC.Spec)
	}
	// Path tracing: user, BB-A, BB-B.
	if len(vC.Path) != 3 {
		t.Fatalf("path = %v", vC.Path)
	}
	if vC.Path[0] != w.alice.Key.DN || vC.Path[1] != w.brokers[0].DN() || vC.Path[2] != w.brokers[1].DN() {
		t.Errorf("path = %v", vC.Path)
	}
	// Each broker layer's admission claim, in path order: the audit
	// that checked every layer hands them over.
	if got := fmt.Sprintf("%s", vC.Claims); got != "[DomainA-1 DomainB-1]" {
		t.Errorf("claims = %q, want each broker layer's in path order", vC.Claims)
	}
}

func TestFigure7CapabilityChainLengths(t *testing.T) {
	w := buildWorld(t, true)
	spec := testSpec(w.alice.Key.DN)

	now := time.Now()
	rarU, err := w.alice.BuildRAR(spec, w.certs[0])
	if err != nil {
		t.Fatal(err)
	}
	vA, err := w.brokers[0].Verify(rarU, w.alice.Key.DN, w.alice.Cert.DER, now)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 7: BB-A holds 2 capability certificates.
	if len(vA.Capabilities) != 2 {
		t.Fatalf("BB-A capability list = %d, want 2", len(vA.Capabilities))
	}
	rarA, err := w.brokers[0].Extend(rarU, w.alice.Cert.DER, vA, w.certs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	vB, err := w.brokers[1].Verify(rarA, w.brokers[0].DN(), w.certs[0].DER, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(vB.Capabilities) != 3 {
		t.Fatalf("BB-B capability list = %d, want 3", len(vB.Capabilities))
	}
	rarB, err := w.brokers[1].Extend(rarA, w.certs[0].DER, vB, w.certs[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	vC, err := w.brokers[2].Verify(rarB, w.brokers[1].DN(), w.certs[1].DER, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(vC.Capabilities) != 4 {
		t.Fatalf("BB-C capability list = %d, want 4", len(vC.Capabilities))
	}
	// The full chain verifies against the CAS and is scoped to the RAR.
	attrs, err := vC.Capabilities.Verify(pki.VerifyOptions{
		CASKey:             w.cas.Key().Public(),
		RequireRestriction: spec.RestrictionFor(),
	})
	if err != nil {
		t.Fatalf("capability chain verify at C: %v", err)
	}
	if !slices.Contains(attrs.Capabilities, "network-reservation") {
		t.Error("capability lost in delegation")
	}
	// The chain ends at BB-C, the broker that verified it (§6.5).
	if last := vC.Capabilities[len(vC.Capabilities)-1]; last.SubjectDN() != w.brokers[2].DN() {
		t.Errorf("chain ends at %s, want BB-C %s", last.SubjectDN(), w.brokers[2].DN())
	}
}

func TestVerifyRejectsWrongChannelPeer(t *testing.T) {
	w := buildWorld(t, false)
	spec := testSpec(w.alice.Key.DN)
	rarU, err := w.alice.BuildRAR(spec, w.certs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.brokers[0].Verify(rarU, w.brokers[1].DN(), w.certs[1].DER, time.Now()); err == nil {
		t.Fatal("envelope accepted from a channel peer that did not sign it")
	}
}

func TestVerifyRejectsUnknownUser(t *testing.T) {
	w := buildWorld(t, false)
	// A user certified by an unknown CA must be rejected by BB-A.
	rogueCA, err := pki.NewCA(identity.NewDN("Evil", "", "CA"))
	if err != nil {
		t.Fatal(err)
	}
	key, err := identity.GenerateKeyPair(identity.NewDN("Evil", "", "mallory"))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := rogueCA.IssueIdentity(key.DN, key.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ua, err := NewUserAgent(key, cert, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(key.DN)
	rar, err := ua.BuildRAR(spec, w.certs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.brokers[0].Verify(rar, key.DN, cert.DER, time.Now()); err == nil {
		t.Fatal("user from unknown CA accepted")
	}
}

func TestVerifyRejectsSkippedHop(t *testing.T) {
	w := buildWorld(t, false)
	spec := testSpec(w.alice.Key.DN)
	now := time.Now()
	rarU, err := w.alice.BuildRAR(spec, w.certs[0])
	if err != nil {
		t.Fatal(err)
	}
	vA, err := w.brokers[0].Verify(rarU, w.alice.Key.DN, w.alice.Cert.DER, now)
	if err != nil {
		t.Fatal(err)
	}
	// BB-A addresses the RAR to BB-B but a malicious client relays it
	// straight to BB-C. C only pins B, so A's outer signature cannot be
	// resolved: the skipped hop is detected.
	rarA, err := w.brokers[0].Extend(rarU, w.alice.Cert.DER, vA, w.certs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.brokers[2].Verify(rarA, w.brokers[0].DN(), w.certs[0].DER, now); err == nil {
		t.Fatal("RAR that skipped the intermediate hop was accepted")
	}
}

func TestVerifyRejectsMisaddressedLayer(t *testing.T) {
	w := buildWorld(t, false)
	spec := testSpec(w.alice.Key.DN)
	now := time.Now()
	rarU, err := w.alice.BuildRAR(spec, w.certs[0])
	if err != nil {
		t.Fatal(err)
	}
	vA, err := w.brokers[0].Verify(rarU, w.alice.Key.DN, w.alice.Cert.DER, now)
	if err != nil {
		t.Fatal(err)
	}
	// BB-A extends toward C directly (skipping B): B must refuse
	// because the layer is not addressed to it.
	rarA, err := w.brokers[0].Extend(rarU, w.alice.Cert.DER, vA, w.certs[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.brokers[1].Verify(rarA, w.brokers[0].DN(), w.certs[0].DER, now)
	if err == nil {
		t.Fatal("misaddressed layer accepted")
	}
	if !strings.Contains(err.Error(), "addressed to") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestIntroducerDepthPolicyEnforced(t *testing.T) {
	w := buildWorld(t, false)
	// C refuses introduction chains deeper than 1: the user's layer
	// (depth 2) must be rejected.
	w.brokers[2].Trust.SetMaxIntroducerDepth(1)
	now := time.Now()
	rarB := rarForC(t, w, testSpec(w.alice.Key.DN), now)
	_, err := w.brokers[2].Verify(rarB, w.brokers[1].DN(), w.certs[1].DER, now)
	if want := "introduction depth 2 exceeds local policy limit 1"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("chain deeper than local introducer policy: err = %v, want one containing %q", err, want)
	}
}

// TestTransitIntroducerDepthPolicyEnforced: a broker that passes a
// request on checks its channel peer's layer alone and resolves no
// inner key, yet the introducer-depth bound holds there too, in the
// words an audit refuses with. C, vouching for a request bound past
// it, refuses the 3-layer onion under a limit of 1 and takes it under
// a limit of 2 on one signature check.
func TestTransitIntroducerDepthPolicyEnforced(t *testing.T) {
	w := buildWorld(t, false)
	spec := testSpec(w.alice.Key.DN)
	spec.DestDomain = "DomainD"
	now := time.Now()
	rarB := rarForC(t, w, spec, now)
	w.brokers[2].Trust.SetMaxIntroducerDepth(1)
	_, err := w.brokers[2].Receive(rarB, w.brokers[1].DN(), w.certs[1].DER, now, "DomainC")
	if want := "introduction depth 2 exceeds local policy limit 1"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("transit broker under a depth limit of 1: err = %v, want one containing %q", err, want)
	}
	w.brokers[2].Trust.SetMaxIntroducerDepth(2)
	v, err := w.brokers[2].Receive(rarB, w.brokers[1].DN(), w.certs[1].DER, now, "DomainC")
	if err != nil {
		t.Fatal(err)
	}
	if v.Signatures != 1 || v.Vouched != 2 {
		t.Errorf("transit broker checked %d layers and vouched for %d, want 1 and 2", v.Signatures, v.Vouched)
	}
}

// rarForC runs A and B on spec and returns the 3-layer onion B sends C.
func rarForC(t *testing.T, w *world, spec *Spec, now time.Time) *envelope.Envelope {
	t.Helper()
	rarU, err := w.alice.BuildRAR(spec, w.certs[0])
	if err != nil {
		t.Fatal(err)
	}
	vA, err := w.brokers[0].Verify(rarU, w.alice.Key.DN, w.alice.Cert.DER, now)
	if err != nil {
		t.Fatal(err)
	}
	rarA, err := w.brokers[0].Extend(rarU, w.alice.Cert.DER, vA, w.certs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	vB, err := w.brokers[1].Verify(rarA, w.brokers[0].DN(), w.certs[0].DER, now)
	if err != nil {
		t.Fatal(err)
	}
	rarB, err := w.brokers[1].Extend(rarA, w.certs[0].DER, vB, w.certs[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	return rarB
}

func TestSpecUserMustSignInnermost(t *testing.T) {
	w := buildWorld(t, false)
	spec := testSpec(w.alice.Key.DN)
	spec.User = identity.NewDN("Grid", "DomainA", "SomeoneElse")
	if _, err := w.alice.BuildRAR(spec, w.certs[0]); err == nil {
		t.Fatal("agent built RAR for foreign user")
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec(identity.NewDN("Grid", "A", "u"))
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Spec){
		"no rarid":   func(s *Spec) { s.RARID = "" },
		"bad user":   func(s *Spec) { s.User = "nope" },
		"zero bw":    func(s *Spec) { s.Bandwidth = 0 },
		"bad window": func(s *Spec) { s.Window = units.Window{} },
		"no src":     func(s *Spec) { s.SrcHost = "" },
	}
	for name, mutate := range cases {
		s := *good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err == nil {
		t.Error("nil spec accepted")
	}
}

func TestNewRARIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := NewRARID()
		if !strings.HasPrefix(id, "RAR-") || seen[id] {
			t.Fatalf("bad or duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestExtendWithoutCapabilities(t *testing.T) {
	w := buildWorld(t, false)
	spec := testSpec(w.alice.Key.DN)
	vC, _ := propagate(t, w, spec)
	if len(vC.Capabilities) != 0 {
		t.Fatalf("capabilities = %d, want 0 for capability-less flow", len(vC.Capabilities))
	}
}

func TestMaxRequestAgeRejectsStaleRAR(t *testing.T) {
	w := buildWorld(t, false)
	w.brokers[0].MaxRequestAge = time.Minute
	spec := testSpec(w.alice.Key.DN)
	rarU, err := w.alice.BuildRAR(spec, w.certs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Fresh: accepted.
	if _, err := w.brokers[0].Verify(rarU, w.alice.Key.DN, w.alice.Cert.DER, time.Now()); err != nil {
		t.Fatalf("fresh RAR rejected: %v", err)
	}
	// Replayed an hour later: refused.
	if _, err := w.brokers[0].Verify(rarU, w.alice.Key.DN, w.alice.Cert.DER, time.Now().Add(time.Hour)); err == nil {
		t.Fatal("stale RAR accepted despite MaxRequestAge")
	}
	// No limit configured: the old RAR is accepted (certs still valid).
	w.brokers[0].MaxRequestAge = 0
	if _, err := w.brokers[0].Verify(rarU, w.alice.Key.DN, w.alice.Cert.DER, time.Now().Add(time.Hour)); err != nil {
		t.Fatalf("unlimited-age verify failed: %v", err)
	}
}
