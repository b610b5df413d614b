// Package group implements the third-party group membership servers
// the paper's trust model delegates to: "domain B agrees to provide
// resources to anyone whom a third party accredits as a 'physicist'".
//
// A bandwidth broker receiving the assertion "I am a physicist"
// verifies it by asking the group server named in its policy; the
// server answers with a signed attestation that the broker (and
// downstream brokers) can check offline and cache.
package group

import (
	"fmt"
	"sync"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/wire"
)

// Attestation is a signed statement that User belongs to Group until
// Expires.
type Attestation struct {
	ServerDN identity.DN
	User     identity.DN
	Group    string
	Expires  time.Time
	// Signature is the server's signature over the canonical payload.
	Signature []byte
}

// attestationPayload is the canonical byte string an attestation
// signature covers: a domain-separation prefix plus the fields in the
// wire encoding, 1=server 2=user 3=group 4=expires. Every field is
// length-prefixed and tagged, so no value can shift bytes into its
// neighbour — the `|`-joined text this replaces let an attestation for
// user "alice|x" in group "g" pass as one for "alice" in group "x|g".
func attestationPayload(server, user identity.DN, group string, expires time.Time) []byte {
	buf := append(make([]byte, 0, 128), "e2eqos-group-attestation-v1\x00"...)
	buf = wire.AppendString(buf, 1, string(server))
	buf = wire.AppendString(buf, 2, string(user))
	buf = wire.AppendString(buf, 3, group)
	return wire.AppendTime(buf, 4, expires)
}

// Server validates group membership assertions. It is safe for
// concurrent use.
type Server struct {
	key *identity.KeyPair
	ttl time.Duration

	mu      sync.RWMutex
	members map[string]map[identity.DN]bool
}

// NewServer creates a group server signing with key; attestations are
// valid for ttl (default 1 hour).
func NewServer(key *identity.KeyPair, ttl time.Duration) *Server {
	if ttl <= 0 {
		ttl = time.Hour
	}
	return &Server{key: key, ttl: ttl, members: make(map[string]map[identity.DN]bool)}
}

// Key returns the server key pair (its public half is what verifiers
// pin).
func (s *Server) Key() *identity.KeyPair { return s.key }

// AddMember enrols user in group.
func (s *Server) AddMember(group string, user identity.DN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.members[group] == nil {
		s.members[group] = make(map[identity.DN]bool)
	}
	s.members[group][user] = true
}

// IsMember reports current membership.
func (s *Server) IsMember(group string, user identity.DN) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.members[group][user]
}

// Validate checks the membership assertion and, when valid, returns a
// signed attestation.
func (s *Server) Validate(user identity.DN, group string) (*Attestation, error) {
	if !s.IsMember(group, user) {
		return nil, fmt.Errorf("group: %s is not a member of %q", user, group)
	}
	expires := time.Now().Add(s.ttl)
	payload := attestationPayload(s.key.DN, user, group, expires)
	sig, err := s.key.Sign(payload)
	if err != nil {
		return nil, fmt.Errorf("group: signing attestation: %w", err)
	}
	return &Attestation{
		ServerDN:  s.key.DN,
		User:      user,
		Group:     group,
		Expires:   expires,
		Signature: sig,
	}, nil
}

// VerifyAttestation checks an attestation against the issuing server's
// public key and the clock.
func VerifyAttestation(a *Attestation, serverKey *identity.KeyPair, at time.Time) error {
	return verifyAttestation(a, serverKey, at)
}

func verifyAttestation(a *Attestation, serverKey *identity.KeyPair, at time.Time) error {
	if a == nil {
		return fmt.Errorf("group: nil attestation")
	}
	if at.After(a.Expires) {
		return fmt.Errorf("group: attestation for %s in %q expired at %s", a.User, a.Group, a.Expires)
	}
	payload := attestationPayload(a.ServerDN, a.User, a.Group, a.Expires)
	if err := identity.Verify(serverKey.Public(), payload, a.Signature); err != nil {
		return fmt.Errorf("group: attestation signature: %w", err)
	}
	return nil
}
