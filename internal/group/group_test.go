package group

import (
	"testing"

	"e2eqos/internal/identity"
)

var alice = identity.NewDN("Grid", "DomainA", "Alice")

func TestMembership(t *testing.T) {
	s := NewServer()
	s.AddMember("ATLAS experiment", alice)
	if !s.IsMember("ATLAS experiment", alice) {
		t.Fatal("membership not recorded")
	}
	if s.IsMember("CMS", alice) {
		t.Fatal("spurious membership")
	}
}

func TestValidateMember(t *testing.T) {
	s := NewServer()
	s.AddMember("physicist", alice)
	if err := s.Validate(alice, "physicist"); err != nil {
		t.Fatal(err)
	}
}

func TestValidateNonMember(t *testing.T) {
	s := NewServer()
	if err := s.Validate(alice, "physicist"); err == nil {
		t.Fatal("non-member validated")
	}
}
