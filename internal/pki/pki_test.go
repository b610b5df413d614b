package pki

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/identity"
)

func mustCA(t *testing.T, name string) *CA {
	t.Helper()
	ca, err := NewCA(identity.NewDN("Grid", "", name))
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func mustKey(t *testing.T, dn identity.DN) *identity.KeyPair {
	t.Helper()
	kp, err := identity.GenerateKeyPair(dn)
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func TestCAIssueIdentity(t *testing.T) {
	ca := mustCA(t, "RootCA")
	alice := mustKey(t, identity.NewDN("Grid", "DomainA", "Alice"))
	cert, err := ca.IssueIdentity(alice.DN, alice.Public(), 0, "alice.domain-a.example")
	if err != nil {
		t.Fatal(err)
	}
	if cert.SubjectDN() != alice.DN {
		t.Errorf("subject DN = %s, want %s", cert.SubjectDN(), alice.DN)
	}
	if cert.IssuerDN() != ca.DN() {
		t.Errorf("issuer DN = %s, want %s", cert.IssuerDN(), ca.DN())
	}
	if !cert.PublicKey().Equal(alice.Public()) {
		t.Error("embedded public key mismatch")
	}
	if err := cert.CheckSignedBy(ca.Key().Public()); err != nil {
		t.Errorf("CA signature invalid: %v", err)
	}
	other := mustCA(t, "OtherCA")
	if err := cert.CheckSignedBy(other.Key().Public()); err == nil {
		t.Error("signature verified under wrong CA key")
	}
	if !cert.ValidAt(time.Now()) {
		t.Error("freshly issued cert should be valid now")
	}
	if cert.ValidAt(time.Now().Add(400 * 24 * time.Hour)) {
		t.Error("cert should have expired after default validity")
	}
}

func TestCAIssueIdentityErrors(t *testing.T) {
	ca := mustCA(t, "RootCA")
	if _, err := ca.IssueIdentity("bogus", nil, 0); err == nil {
		t.Fatal("expected error for invalid DN")
	}
	alice := mustKey(t, identity.NewDN("Grid", "A", "Alice"))
	if _, err := ca.IssueIdentity(alice.DN, nil, 0); err == nil {
		t.Fatal("expected error for nil key")
	}
}

func TestCASerialIncrements(t *testing.T) {
	ca := mustCA(t, "RootCA")
	a := mustKey(t, identity.NewDN("Grid", "A", "a"))
	c1, err := ca.IssueIdentity(a.DN, a.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := ca.IssueIdentity(a.DN, a.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Cert.SerialNumber.Cmp(c2.Cert.SerialNumber) == 0 {
		t.Fatal("serial numbers must differ")
	}
}

func TestParseCertificateRejectsGarbage(t *testing.T) {
	if _, err := ParseCertificate([]byte{0x30, 0x01, 0x02}); err == nil {
		t.Fatal("garbage must not parse")
	}
}

// buildChain constructs the Figure 7 scenario: CAS issues a capability
// to the user over a proxy key; the user delegates to BB-A, BB-A to
// BB-B, BB-B to BB-C.
func buildChain(t *testing.T) (cas *identity.KeyPair, chain CapabilityChain, bbKeys []*identity.KeyPair) {
	t.Helper()
	cas = mustKey(t, identity.NewDN("ESnet", "", "CAS"))
	user := mustKey(t, identity.NewDN("Grid", "DomainA", "Alice"))
	proxy, err := NewProxyKey()
	if err != nil {
		t.Fatal(err)
	}
	attrs := CapabilityAttrs{Community: "ESnet", Capabilities: []string{"network-reservation", "premium"}}
	root, err := IssueCommunityCapability(cas.DN, cas, user.DN, proxy, attrs, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	chain = CapabilityChain{root}
	dns := []identity.DN{
		identity.NewDN("Grid", "DomainA", "bb-a"),
		identity.NewDN("Grid", "DomainB", "bb-b"),
		identity.NewDN("Grid", "DomainC", "bb-c"),
	}
	signerDN, signerKey := user.DN, proxy.Private
	for i, dn := range dns {
		kp := mustKey(t, dn)
		bbKeys = append(bbKeys, kp)
		restr := []string(nil)
		if i == 0 {
			restr = []string{"valid-for-rar:RAR-17"}
		}
		next, err := Delegate(chain[len(chain)-1], signerDN, signerKey, dn, kp.Public(), restr)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, next)
		signerDN, signerKey = dn, kp.Private
	}
	return cas, chain, bbKeys
}

func TestCapabilityChainFigure7(t *testing.T) {
	cas, chain, _ := buildChain(t)
	// Figure 7: list lengths 1 (user), 2 (A), 3 (B), 4 (C).
	if len(chain) != 4 {
		t.Fatalf("chain length = %d, want 4", len(chain))
	}
	attrs, err := chain.Verify(VerifyOptions{CASKey: cas.Public()})
	if err != nil {
		t.Fatalf("chain verification failed: %v", err)
	}
	if !slices.Contains(attrs.Capabilities, "network-reservation") {
		t.Error("effective attrs lost capability")
	}
	if len(attrs.Restrictions) != 1 || attrs.Restrictions[0] != "valid-for-rar:RAR-17" {
		t.Errorf("restrictions = %v", attrs.Restrictions)
	}
	// Restriction scoping.
	if _, err := chain.Verify(VerifyOptions{CASKey: cas.Public(), RequireRestriction: "valid-for-rar:RAR-17"}); err != nil {
		t.Errorf("chain should satisfy its own restriction: %v", err)
	}
	if _, err := chain.Verify(VerifyOptions{CASKey: cas.Public(), RequireRestriction: "valid-for-rar:OTHER"}); err == nil {
		t.Error("chain must not satisfy a different RAR restriction")
	}
}

func TestCapabilityChainRejectsWrongCAS(t *testing.T) {
	_, chain, _ := buildChain(t)
	evil := mustKey(t, identity.NewDN("Evil", "", "CAS"))
	if _, err := chain.Verify(VerifyOptions{CASKey: evil.Public()}); err == nil {
		t.Fatal("chain anchored at wrong CAS accepted")
	}
}

func TestCapabilityChainRejectsTamperedDelegation(t *testing.T) {
	cas, chain, _ := buildChain(t)
	// Replace the second delegation with one signed by an unrelated key:
	// simulates an intermediate domain injecting a delegation it could
	// not legitimately produce.
	mallory := mustKey(t, identity.NewDN("Evil", "", "Mallory"))
	forged, err := Delegate(chain[1], chain[1].SubjectDN(), mallory.Private,
		chain[2].SubjectDN(), chain[2].PublicKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(CapabilityChain{}, chain...)
	bad[2] = forged
	if _, err := bad.Verify(VerifyOptions{CASKey: cas.Public()}); err == nil {
		t.Fatal("forged delegation accepted")
	}
}

func TestCapabilityChainRejectsExpandedCapabilities(t *testing.T) {
	cas, chain, bbKeys := buildChain(t)
	// BB-C attempts to delegate to itself with MORE capabilities.
	grown := chain[3].Attrs
	grown.Capabilities = append(append([]string(nil), grown.Capabilities...), "root-access")
	cert, err := issueCapability(chain[3].SubjectDN(), bbKeys[2].Private,
		identity.NewDN("Grid", "DomainC", "bb-c2"), bbKeys[2].Public(), grown, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append(CapabilityChain{}, chain...), cert)
	if _, err := bad.Verify(VerifyOptions{CASKey: cas.Public()}); err == nil {
		t.Fatal("capability expansion accepted")
	}
}

func TestCapabilityChainRejectsDroppedRestrictions(t *testing.T) {
	cas, chain, bbKeys := buildChain(t)
	attrs := chain[3].Attrs
	attrs.Restrictions = nil // drop "valid-for-rar"
	cert, err := issueCapability(chain[3].SubjectDN(), bbKeys[2].Private,
		identity.NewDN("Grid", "DomainC", "engine"), bbKeys[2].Public(), attrs, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(append(CapabilityChain{}, chain...), cert)
	if _, err := bad.Verify(VerifyOptions{CASKey: cas.Public()}); err == nil {
		t.Fatal("restriction laundering accepted")
	}
}

func TestCapabilityChainEncodeDecode(t *testing.T) {
	cas, chain, _ := buildChain(t)
	ders := make([][]byte, len(chain))
	for i, cert := range chain {
		ders[i] = cert.DER
	}
	decoded, err := DecodeCapabilityChain(ders)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(chain) {
		t.Fatalf("decoded length %d, want %d", len(decoded), len(chain))
	}
	if _, err := decoded.Verify(VerifyOptions{CASKey: cas.Public()}); err != nil {
		t.Fatalf("decoded chain fails verification: %v", err)
	}
}

func TestDecodeChainRejectsNonCapabilityCert(t *testing.T) {
	ca := mustCA(t, "RootCA")
	a := mustKey(t, identity.NewDN("Grid", "A", "a"))
	cert, err := ca.IssueIdentity(a.DN, a.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCapabilityChain([][]byte{cert.DER}); err == nil {
		t.Fatal("identity cert accepted as capability cert")
	}
}

func TestEmptyChainVerify(t *testing.T) {
	cas := mustKey(t, identity.NewDN("ESnet", "", "CAS"))
	var chain CapabilityChain
	if _, err := chain.Verify(VerifyOptions{CASKey: cas.Public()}); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestTrustStoreDirect(t *testing.T) {
	ca := mustCA(t, "RootCA")
	alice := mustKey(t, identity.NewDN("Grid", "A", "Alice"))
	cert, err := ca.IssueIdentity(alice.DN, alice.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(3)
	caCert := &Certificate{Cert: ca.Certificate(), DER: ca.CertificateDER()}
	if _, err := ts.DirectlyTrusted(cert, time.Now()); err == nil {
		t.Fatal("empty store must not trust anything")
	}
	if err := ts.AddRoot(caCert); err != nil {
		t.Fatal(err)
	}
	pub, err := ts.DirectlyTrusted(cert, time.Now())
	if err != nil {
		t.Fatalf("root-signed cert rejected: %v", err)
	}
	if !pub.Equal(alice.Public()) {
		t.Fatal("wrong key returned")
	}
}

func TestTrustStorePinnedPeer(t *testing.T) {
	ca := mustCA(t, "UnknownCA")
	peer := mustKey(t, identity.NewDN("Grid", "B", "bb-b"))
	cert, err := ca.IssueIdentity(peer.DN, peer.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(3)
	ts.PinPeer(peer.DN, peer.Public())
	if _, err := ts.DirectlyTrusted(cert, time.Now()); err != nil {
		t.Fatalf("pinned peer rejected: %v", err)
	}
	// Same DN, different key: must be rejected.
	imposter := mustKey(t, peer.DN)
	badCert, err := ca.IssueIdentity(peer.DN, imposter.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.DirectlyTrusted(badCert, time.Now()); err == nil {
		t.Fatal("imposter with pinned DN but wrong key accepted")
	}
}

func TestExtractCapabilityAttrsAbsent(t *testing.T) {
	ca := mustCA(t, "RootCA")
	kp := mustKey(t, identity.NewDN("Grid", "A", "a"))
	cert, err := ca.IssueIdentity(kp.DN, kp.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := ExtractCapabilityAttrs(cert.Cert)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("identity cert flagged as capability cert")
	}
}

// TestCapabilityAttrsCodec: the capability extension's payload is the
// wire encoding; it round-trips, and a truncated payload or one with
// trailing garbage is refused as capability attrs.
func TestCapabilityAttrsCodec(t *testing.T) {
	in := CapabilityAttrs{
		Community:    "ESnet",
		Capabilities: []string{"network-reservation", ""},
		Restrictions: []string{"valid-for-rar:RAR-17", "valid-in:DomainC"},
	}
	raw := in.appendBinary(nil)
	out, err := decodeCapabilityAttrs(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Community != in.Community || !slices.Equal(out.Capabilities, in.Capabilities) || !slices.Equal(out.Restrictions, in.Restrictions) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	for name, bad := range map[string][]byte{
		"truncated":        raw[:len(raw)-3],
		"trailing garbage": append(slices.Clip(raw), 0x00, 0xff),
	} {
		_, err := decodeCapabilityAttrs(bad)
		if err == nil || !strings.Contains(err.Error(), "capability attrs") {
			t.Errorf("%s payload: err %v, want a capability attrs decode error", name, err)
		}
	}
}

func TestProxyKeyDistinctFromUserKey(t *testing.T) {
	proxy, err := NewProxyKey()
	if err != nil {
		t.Fatal(err)
	}
	user := mustKey(t, identity.NewDN("Grid", "A", "Alice"))
	if proxy.Public().Equal(user.Public()) {
		t.Fatal("proxy key must be independent")
	}
}

// p256Certificate has ca sign a certificate whose subject key is P-256:
// well-formed X.509 under a trusted root, made for a signature
// algorithm this tree does not speak.
func p256Certificate(t *testing.T, ca *CA, dn identity.DN) *x509.Certificate {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(7),
		Subject:      dnToName(dn),
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.Certificate(), &key.PublicKey, ca.Key().Private.Signer())
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// TestOtherKeyAlgorithmRefusedByName: a CA-signed certificate carrying
// a P-256 subject key never yields a key, nil or otherwise, without an
// error that names the reason — parsed, asked about directly, or added
// as a root. (Introduced by a trusted peer, it is refused by the one
// trust walk, core.Broker.Verify: see core's test of the same name.)
func TestOtherKeyAlgorithmRefusedByName(t *testing.T) {
	ca := mustCA(t, "RootCA")
	dn := identity.NewDN("Grid", "A", "bb-a")
	odd := p256Certificate(t, ca, dn)
	if err := odd.CheckSignatureFrom(ca.Certificate()); err != nil {
		t.Fatalf("the fixture is not CA-signed: %v", err)
	}
	if _, err := ParseCertificate(odd.Raw); !errors.Is(err, identity.ErrKeyAlgorithm) {
		t.Errorf("ParseCertificate: err = %v, want identity.ErrKeyAlgorithm", err)
	}
	if _, err := DecodeCertPEM(EncodeCertPEM(odd.Raw)); !errors.Is(err, identity.ErrKeyAlgorithm) {
		t.Errorf("DecodeCertPEM: err = %v, want identity.ErrKeyAlgorithm", err)
	}

	ts := NewTrustStore(2)
	if err := ts.AddRoot(&Certificate{Cert: ca.Certificate(), DER: ca.CertificateDER()}); err != nil {
		t.Fatal(err)
	}
	literal := &Certificate{Cert: odd, DER: odd.Raw}
	if pub := literal.PublicKey(); pub != nil {
		t.Errorf("PublicKey of a P-256 certificate = %x, want nil", pub)
	}
	if pub, err := ts.DirectlyTrusted(literal, time.Now()); !errors.Is(err, identity.ErrKeyAlgorithm) || pub != nil {
		t.Errorf("DirectlyTrusted: key %x, err = %v, want identity.ErrKeyAlgorithm", pub, err)
	}
	if err := ts.AddRoot(literal); !errors.Is(err, identity.ErrKeyAlgorithm) {
		t.Errorf("AddRoot: err = %v, want identity.ErrKeyAlgorithm", err)
	}
}
