package cas

import (
	"slices"
	"testing"

	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
)

func newCAS(t *testing.T) *Server {
	t.Helper()
	key, err := identity.GenerateKeyPair(identity.NewDN("ESnet", "", "CAS"))
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(key)
}

var alice = identity.NewDN("Grid", "DomainA", "Alice")

func TestGrantAndCapabilities(t *testing.T) {
	s := newCAS(t)
	s.Grant(alice, "network-reservation")
	s.Grant(alice, "network-reservation", "premium") // duplicate ignored
	caps := s.Capabilities(alice)
	if len(caps) != 2 {
		t.Fatalf("capabilities = %v", caps)
	}
	if caps := s.Capabilities(identity.NewDN("Grid", "DomainA", "Bob")); len(caps) != 0 {
		t.Fatalf("ungranted user holds %v", caps)
	}
}

func TestLoginIssuesVerifiableCredential(t *testing.T) {
	s := newCAS(t)
	s.Grant(alice, "network-reservation")
	cred, err := s.Login(alice)
	if err != nil {
		t.Fatal(err)
	}
	if cred.Certificate.SubjectDN() != alice {
		t.Errorf("subject = %s", cred.Certificate.SubjectDN())
	}
	if cred.Certificate.Attrs.Community != "ESnet" {
		t.Errorf("community = %s", cred.Certificate.Attrs.Community)
	}
	// The certificate binds the proxy public key.
	if !cred.Certificate.PublicKey().Equal(cred.Proxy.Public()) {
		t.Error("certificate does not carry the proxy key")
	}
	// And anchors a verifiable chain.
	chain := pki.CapabilityChain{cred.Certificate}
	attrs, err := chain.Verify(pki.VerifyOptions{CASKey: s.Key().Public()})
	if err != nil {
		t.Fatalf("chain verify: %v", err)
	}
	if !slices.Contains(attrs.Capabilities, "network-reservation") {
		t.Error("capability missing from verified attrs")
	}
}

func TestLoginWithoutGrants(t *testing.T) {
	s := newCAS(t)
	if _, err := s.Login(alice); err == nil {
		t.Fatal("login without grants succeeded")
	}
}

func TestLoginsUseFreshProxyKeys(t *testing.T) {
	s := newCAS(t)
	s.Grant(alice, "x")
	c1, err := s.Login(alice)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Login(alice)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Proxy.Public().Equal(c2.Proxy.Public()) {
		t.Fatal("proxy keys reused across logins")
	}
}
