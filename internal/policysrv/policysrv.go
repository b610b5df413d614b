// Package policysrv implements the policy server entity of §5: "we
// introduce an entity called a policy server that encapsulates a BB's
// admission control procedures. When a request comes in, it is
// forwarded to the policy server which executes local policy and
// passes back a result ('yes' or 'no') and a modified request."
//
// The server composes three authorization sources, mirroring the
// paper's list: validated group-membership assertions (via group
// servers), cryptographically signed capabilities (via capability
// chain verification against trusted CAS keys), and the local
// attribute-value policy (internal/policy).
package policysrv

import (
	"fmt"
	"sync"
	"time"

	"e2eqos/internal/group"
	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
	"e2eqos/internal/policy"
	"e2eqos/internal/units"
)

// Query is the question a bandwidth broker puts to its policy server.
type Query struct {
	// User is the authenticated requestor.
	User identity.DN
	// Bandwidth / Window describe the reservation.
	Bandwidth units.Bandwidth
	Window    units.Window
	// Available is the uncommitted capacity on the relevant aggregate.
	Available units.Bandwidth
	// SourceDomain / DestDomain are the end domains.
	SourceDomain string
	DestDomain   string
	// Assertions are unvalidated group claims carried in the request
	// ("I am a physicist").
	Assertions []string
	// CapabilityChain is the (possibly delegated) capability
	// certificate chain accompanying the request.
	CapabilityChain pki.CapabilityChain
	// RequireRestriction scopes capability verification to this RAR.
	// It is read only when CapabilityChain is not empty.
	RequireRestriction string
	// LinkedReservations maps resource type -> verified handle present.
	LinkedReservations map[string]bool
}

// Result is the policy server's answer: the decision and the
// authorization material it accepted.
type Result struct {
	Decision policy.Decision
	// ValidatedGroups are the memberships that survived validation.
	ValidatedGroups []string
	// Capabilities are the verified capability grants.
	Capabilities []policy.Capability
}

// Server is a policy decision point for one domain.
type Server struct {
	domain string
	pol    *policy.Policy

	mu sync.RWMutex
	// groupServers maps group name -> the server trusted to accredit it.
	groupServers map[string]*group.Server
	// casKeys maps community -> trusted CAS public key.
	casKeys map[string]identity.PublicKey
	// nowFn is injectable for tests.
	nowFn func() time.Time
}

// New creates a policy server for domain evaluating pol.
func New(domain string, pol *policy.Policy) *Server {
	return &Server{
		domain:       domain,
		pol:          pol,
		groupServers: make(map[string]*group.Server),
		casKeys:      make(map[string]identity.PublicKey),
		nowFn:        time.Now,
	}
}

// NamesRequester reports whether the policy reads who is asking
// (policy.Policy.NamesRequester).
func (s *Server) NamesRequester() bool { return s.pol.NamesRequester() }

// TrustGroupServer delegates accreditation of groupName to gs.
func (s *Server) TrustGroupServer(groupName string, gs *group.Server) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.groupServers[groupName] = gs
}

// TrustCAS pins the CAS public key for a community.
func (s *Server) TrustCAS(community string, key identity.PublicKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.casKeys[community] = key
}

// SetClock injects a time source (tests and simulations).
func (s *Server) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nowFn = now
}

// Decide validates the query's authorization material and evaluates
// local policy.
func (s *Server) Decide(q *Query) (*Result, error) {
	res := new(Result)
	if err := s.DecideInto(q, res); err != nil {
		return nil, err
	}
	return res, nil
}

// DecideInto is Decide answering into the caller's res, which it
// overwrites. A query without group assertions or a capability chain
// allocates nothing: the policy is evaluated over a request on the stack.
func (s *Server) DecideInto(q *Query, res *Result) error {
	if q == nil {
		return fmt.Errorf("policysrv: nil query")
	}
	s.mu.RLock()
	pol := s.pol
	nowFn := s.nowFn
	s.mu.RUnlock()
	now := nowFn()

	*res = Result{}

	// 1. Validate group assertions with the delegated group servers.
	for _, g := range q.Assertions {
		s.mu.RLock()
		gs := s.groupServers[g]
		s.mu.RUnlock()
		if gs == nil {
			continue // no server trusted for this group: assertion ignored
		}
		if gs.Validate(q.User, g) == nil {
			res.ValidatedGroups = append(res.ValidatedGroups, g)
		}
	}
	// 2. Verify the capability chain against trusted CAS keys.
	if len(q.CapabilityChain) > 0 {
		community := q.CapabilityChain[0].Attrs.Community
		s.mu.RLock()
		casKey := s.casKeys[community]
		s.mu.RUnlock()
		if casKey != nil {
			attrs, err := q.CapabilityChain.Verify(pki.VerifyOptions{
				CASKey:             casKey,
				At:                 now,
				RequireRestriction: q.RequireRestriction,
			})
			if err == nil {
				res.Capabilities = append(res.Capabilities, policy.Capability{Community: attrs.Community})
			}
		}
	}

	// 3. Evaluate local policy over the validated facts.
	req := policy.Request{
		User:               q.User,
		Groups:             res.ValidatedGroups,
		Capabilities:       res.Capabilities,
		Bandwidth:          q.Bandwidth,
		Available:          q.Available,
		Time:               effectiveTime(q, now),
		SourceDomain:       q.SourceDomain,
		DestDomain:         q.DestDomain,
		LinkedReservations: q.LinkedReservations,
	}
	res.Decision = pol.Evaluate(&req)
	return nil
}

// effectiveTime evaluates time-of-day policy at the reservation start
// when a window is supplied, else at the current time.
func effectiveTime(q *Query, now time.Time) time.Time {
	if q.Window.Valid() {
		return q.Window.Start
	}
	return now
}
