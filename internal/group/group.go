// Package group implements the third-party group membership servers
// the paper's trust model delegates to: "domain B agrees to provide
// resources to anyone whom a third party accredits as a 'physicist'".
//
// A bandwidth broker receiving the assertion "I am a physicist"
// verifies it by asking the group server its own policy names for that
// group. Every domain on the path asks its own trusted server; no
// membership statement travels with the request.
package group

import (
	"fmt"
	"sync"

	"e2eqos/internal/identity"
)

// Server validates group membership assertions. It is safe for
// concurrent use.
type Server struct {
	mu      sync.RWMutex
	members map[string]map[identity.DN]bool
}

// NewServer creates a group server with no members.
func NewServer() *Server {
	return &Server{members: make(map[string]map[identity.DN]bool)}
}

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

// Validate checks the assertion that user belongs to group.
func (s *Server) Validate(user identity.DN, group string) error {
	if !s.IsMember(group, user) {
		return fmt.Errorf("group: %s is not a member of %q", user, group)
	}
	return nil
}
