// Package cas implements a Community Authorization Server in the style
// the paper adopts from the Globus project: at "grid-login" a user
// receives a capability certificate carrying the community's
// capabilities in an X.509v3 extension, bound to a freshly generated
// proxy key pair whose private half the user keeps. The certificate
// plus proxy key seed the cascaded delegation chain of §6.5.
package cas

import (
	"fmt"
	"sync"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
)

// Credential is what a user walks away from grid-login with.
type Credential struct {
	// Certificate is the CAS-issued capability certificate (subject:
	// the user; subject key: the public proxy key).
	Certificate *pki.CapabilityCertificate
	// Proxy is the proxy key pair; its private half signs the first
	// delegation, which proves the user holds it.
	Proxy *pki.ProxyKey
}

// Server is a community authorization server. It is safe for
// concurrent use.
type Server struct {
	key *identity.KeyPair

	mu     sync.RWMutex
	grants map[identity.DN][]string
}

const (
	// community is the community a server authorizes for.
	community = "ESnet"
	// validity is how long an issued certificate is valid.
	validity = 12 * time.Hour
)

// NewServer creates a CAS for the community, issuing certificates
// valid for 12 hours.
func NewServer(key *identity.KeyPair) *Server {
	return &Server{key: key, grants: make(map[identity.DN][]string)}
}

// Key returns the CAS key pair; verifiers pin its public half.
func (s *Server) Key() *identity.KeyPair { return s.key }

// Community returns the community name.
func (s *Server) Community() string { return community }

// Grant records that user holds the given capabilities in this
// community.
func (s *Server) Grant(user identity.DN, capabilities ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range capabilities {
		dup := false
		for _, have := range s.grants[user] {
			if have == c {
				dup = true
				break
			}
		}
		if !dup {
			s.grants[user] = append(s.grants[user], c)
		}
	}
}

// Capabilities lists user's current grants.
func (s *Server) Capabilities(user identity.DN) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.grants[user]...)
}

// Login performs grid-login for user: it mints a proxy key pair and a
// capability certificate over it. Users without grants are refused.
func (s *Server) Login(user identity.DN) (*Credential, error) {
	caps := s.Capabilities(user)
	if len(caps) == 0 {
		return nil, fmt.Errorf("cas: %s holds no capabilities in community %q", user, community)
	}
	proxy, err := pki.NewProxyKey()
	if err != nil {
		return nil, err
	}
	attrs := pki.CapabilityAttrs{Community: community, Capabilities: caps}
	cert, err := pki.IssueCommunityCapability(s.key.DN, s.key, user, proxy, attrs, validity)
	if err != nil {
		return nil, fmt.Errorf("cas: issuing capability for %s: %w", user, err)
	}
	return &Credential{Certificate: cert, Proxy: proxy}, nil
}
