package group

import (
	"testing"
	"time"

	"e2eqos/internal/identity"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	key, err := identity.GenerateKeyPair(identity.NewDN("CERN", "", "atlas-vo"))
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(key, time.Hour)
}

var alice = identity.NewDN("Grid", "DomainA", "Alice")

func TestMembership(t *testing.T) {
	s := newServer(t)
	s.AddMember("ATLAS experiment", alice)
	if !s.IsMember("ATLAS experiment", alice) {
		t.Fatal("membership not recorded")
	}
	if s.IsMember("CMS", alice) {
		t.Fatal("spurious membership")
	}
}

func TestValidateIssuesAttestation(t *testing.T) {
	s := newServer(t)
	s.AddMember("physicist", alice)
	att, err := s.Validate(alice, "physicist")
	if err != nil {
		t.Fatal(err)
	}
	if att.User != alice || att.Group != "physicist" || att.ServerDN != s.Key().DN {
		t.Errorf("attestation = %+v", att)
	}
	if err := VerifyAttestation(att, s.Key(), time.Now()); err != nil {
		t.Errorf("fresh attestation rejected: %v", err)
	}
}

func TestValidateNonMember(t *testing.T) {
	s := newServer(t)
	if _, err := s.Validate(alice, "physicist"); err == nil {
		t.Fatal("non-member validated")
	}
}

func TestAttestationExpiry(t *testing.T) {
	s := newServer(t)
	s.AddMember("g", alice)
	att, err := s.Validate(alice, "g")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAttestation(att, s.Key(), att.Expires.Add(time.Second)); err == nil {
		t.Fatal("expired attestation accepted")
	}
}

func TestAttestationTamperDetected(t *testing.T) {
	s := newServer(t)
	s.AddMember("g", alice)
	att, err := s.Validate(alice, "g")
	if err != nil {
		t.Fatal(err)
	}
	att.Group = "root-club"
	if err := VerifyAttestation(att, s.Key(), time.Now()); err == nil {
		t.Fatal("tampered attestation accepted")
	}
}

func TestAttestationWrongServerKey(t *testing.T) {
	s := newServer(t)
	s.AddMember("g", alice)
	att, err := s.Validate(alice, "g")
	if err != nil {
		t.Fatal(err)
	}
	other := newServer(t)
	if err := VerifyAttestation(att, other.Key(), time.Now()); err == nil {
		t.Fatal("attestation accepted under wrong server key")
	}
}

// TestAttestationFieldsBound: the signature covers each field on its
// own, so bytes moved from one field into its neighbour break it. Under
// the '|'-joined payload an attestation issued to user "alice|x" for
// group "g" verified as one for user "alice" in group "x|g".
func TestAttestationFieldsBound(t *testing.T) {
	s := newServer(t)
	s.AddMember("g", alice+"|x")
	att, err := s.Validate(alice+"|x", "g")
	if err != nil {
		t.Fatal(err)
	}
	forged := *att
	forged.User, forged.Group = alice, "x|g"
	if err := VerifyAttestation(&forged, s.Key(), time.Now()); err == nil {
		t.Fatal("attestation for alice|x in g accepted as alice in x|g")
	}
	if err := VerifyAttestation(att, s.Key(), time.Now()); err != nil {
		t.Errorf("the attestation as issued rejected: %v", err)
	}
}

func TestVerifyNilAttestation(t *testing.T) {
	s := newServer(t)
	if err := VerifyAttestation(nil, s.Key(), time.Now()); err == nil {
		t.Fatal("nil attestation accepted")
	}
}
