package experiment

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// User is a testbed principal: key pair, identity certificate from the
// user CA, optional CAS credential, and a transport endpoint.
type User struct {
	world    *World
	Agent    *core.UserAgent
	Domain   string
	endpoint *transport.Endpoint

	mu      sync.Mutex
	clients map[string]*signalling.Client // domain -> client
}

// NewUser creates a user homed in domain (default: the first domain)
// holding the given CAS capabilities and group memberships.
func (w *World) NewUser(name, domain string, capabilities, groups []string) (*User, error) {
	if domain == "" {
		domain = w.SourceDomain()
	}
	if _, ok := w.BBs[domain]; !ok {
		return nil, fmt.Errorf("experiment: unknown domain %q", domain)
	}
	key, err := identity.GenerateKeyPair(identity.NewDN("Grid", domain, name))
	if err != nil {
		return nil, err
	}
	cert, err := w.UserCA.IssueIdentity(key.DN, key.Public(), 0)
	if err != nil {
		return nil, err
	}
	var agent *core.UserAgent
	if len(capabilities) > 0 {
		w.CAS.Grant(key.DN, capabilities...)
		c, err := w.CAS.Login(key.DN)
		if err != nil {
			return nil, err
		}
		agent, err = core.NewUserAgent(key, cert, c)
		if err != nil {
			return nil, err
		}
	} else {
		agent, err = core.NewUserAgent(key, cert, nil)
		if err != nil {
			return nil, err
		}
	}
	for _, g := range groups {
		w.Groups.AddMember(g, key.DN)
	}
	return &User{
		world:    w,
		Agent:    agent,
		Domain:   domain,
		endpoint: w.Net.NewEndpoint(key.DN, cert.DER),
		clients:  make(map[string]*signalling.Client),
	}, nil
}

// DN returns the user identity.
func (u *User) DN() identity.DN { return u.Agent.Key.DN }

// clientTo returns (caching) a client to a domain's broker.
func (u *User) clientTo(domain string) (*signalling.Client, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if c, ok := u.clients[domain]; ok {
		return c, nil
	}
	c, err := signalling.Dial(u.endpoint, u.world.BBAddr(domain))
	if err != nil {
		return nil, err
	}
	u.clients[domain] = c
	return c, nil
}

// call sends msg to a domain's broker and waits for its answer. A user
// call may fan out across every hop of the chain before a result comes
// back, so its deadline is the per-hop budget scaled by the worst-case
// path length (plus one hop of slack); none when the world sets none.
// A call that finds the connection closed (the broker was stopped or
// restarted) fails, and drops the cached client so the next call
// redials.
func (u *User) call(domain string, msg *signalling.Message) (*signalling.Message, error) {
	c, err := u.clientTo(domain)
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(msg, u.world.callTimeout*time.Duration(len(u.world.Domains)+1))
	if errors.Is(err, transport.ErrClosed) {
		u.mu.Lock()
		if u.clients[domain] == c {
			delete(u.clients, domain)
		}
		u.mu.Unlock()
		c.Close()
	}
	return resp, err
}

// Close tears down the user's connections.
func (u *User) Close() {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, c := range u.clients {
		c.Close()
	}
	u.clients = make(map[string]*signalling.Client)
}

// SpecOptions parameterise NewSpec.
type SpecOptions struct {
	DestDomain string
	Bandwidth  units.Bandwidth
	Window     units.Window
	Tunnel     bool
	Linked     map[string]string
}

// NewSpec builds a reservation spec from the user's home domain to
// dest.
func (u *User) NewSpec(opt SpecOptions) *core.Spec {
	w := opt.Window
	if !w.Valid() {
		w = units.NewWindow(u.world.clock().Add(time.Minute), time.Hour)
	}
	return &core.Spec{
		RARID:         core.NewRARID(),
		User:          u.DN(),
		SrcHost:       "host." + u.Domain,
		DstHost:       "host." + opt.DestDomain,
		SourceDomain:  u.Domain,
		DestDomain:    opt.DestDomain,
		Bandwidth:     opt.Bandwidth,
		Window:        w,
		Tunnel:        opt.Tunnel,
		LinkedHandles: opt.Linked,
	}
}

// buildRARFor constructs RAR_U addressed to the given domain's broker.
func (u *User) buildRARFor(spec *core.Spec, domain string) (*envelope.Envelope, error) {
	cert, ok := u.world.BBCerts[domain]
	if !ok {
		return nil, fmt.Errorf("experiment: no broker certificate for %s", domain)
	}
	return u.Agent.BuildRAR(spec, cert)
}

// ReserveE2E performs the paper's hop-by-hop reservation: the user
// contacts only the source-domain broker, which propagates the RAR
// downstream.
func (u *User) ReserveE2E(spec *core.Spec) (*signalling.ResultPayload, error) {
	rar, err := u.buildRARFor(spec, u.Domain)
	if err != nil {
		return nil, err
	}
	msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, rar)
	if err != nil {
		return nil, err
	}
	resp, err := u.call(u.Domain, msg)
	if err != nil {
		return nil, err
	}
	return decodedResult(resp)
}

// ReserveLocalAt performs a single-domain reservation at the given
// domain's broker — the building block of the source-domain baseline
// (Approach 1). The user must be authenticatable by that broker.
func (u *User) ReserveLocalAt(domain string, spec *core.Spec) (*signalling.ResultPayload, error) {
	rar, err := u.buildRARFor(spec, domain)
	if err != nil {
		return nil, err
	}
	msg, err := signalling.NewReserveMessage(signalling.ModeLocal, rar)
	if err != nil {
		return nil, err
	}
	resp, err := u.call(domain, msg)
	if err != nil {
		return nil, err
	}
	return decodedResult(resp)
}

// decodedResult is the result a broker answered with, its approvals
// decoded for the user, who is the one to read them.
func decodedResult(resp *signalling.Message) (*signalling.ResultPayload, error) {
	if resp.Result == nil {
		return nil, fmt.Errorf("experiment: broker sent no result")
	}
	if err := resp.Result.DecodeApprovals(); err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// Cancel withdraws a reservation starting at the given domain (the
// cancel propagates along the recorded path).
func (u *User) Cancel(domain, rarID string) error {
	resp, err := u.call(domain, &signalling.Message{
		Type:   signalling.MsgCancel,
		Cancel: &signalling.CancelPayload{RARID: rarID},
	})
	if err != nil {
		return err
	}
	defer signalling.Release(resp) // the verdict is all a cancel reads
	if resp.Result == nil || !resp.Result.Granted {
		reason := "no result"
		if resp.Result != nil {
			reason = resp.Result.Reason
		}
		return fmt.Errorf("experiment: cancel refused: %s", reason)
	}
	return nil
}

// VerifyApprovals checks a result's approvals, decoded or not, against
// the domains' broker certificates: a grant's statements
// (signalling.VerifyGrant), or each refusal of a denial under its own
// signature.
func (w *World) VerifyApprovals(res *signalling.ResultPayload) error {
	keyOf := func(domain string) (identity.PublicKey, bool) {
		cert, ok := w.BBCerts[domain]
		if !ok {
			return nil, false
		}
		return cert.PublicKey(), true
	}
	if res.Granted {
		return signalling.VerifyGrant(res, keyOf)
	}
	approvals, err := res.DecodedApprovals()
	if err != nil {
		return err
	}
	for i := range approvals {
		a := &approvals[i]
		pub, ok := keyOf(a.Domain)
		if !ok {
			return fmt.Errorf("experiment: approval from unknown domain %s", a.Domain)
		}
		if err := signalling.VerifyApproval(a, pub); err != nil {
			return err
		}
	}
	return nil
}
