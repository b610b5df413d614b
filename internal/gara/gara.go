// Package gara reimplements the General-purpose Architecture for
// Reservation and Allocation as the paper uses it: a uniform API for
// advance reservations of networks, CPUs and disks, plus the
// end-to-end network reservation library with its two source-domain
// propagation strategies (sequential and concurrent) and the
// hop-by-hop strategy of the paper's Approach 2. The source-domain
// strategies are retained as baselines: "Our implementation of this
// API guarantees that all necessary domains are contacted, but of
// course there is nothing to stop a malicious user from modifying our
// implementation to skip a domain."
package gara

import (
	"fmt"
	"sort"
	"sync"

	"e2eqos/internal/core"
	"e2eqos/internal/identity"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/topology"
	"e2eqos/internal/units"
)

// ResourceType names a GARA-managed resource class: Network, or the
// name of a destination pool ("cpu", "disk").
type ResourceType string

// Network is the end-to-end network reservation's resource class.
const Network ResourceType = "network"

// Handle is a uniform reservation handle.
type Handle struct {
	Type ResourceType
	// Domain is the owning domain ("" for end-to-end network
	// reservations, which span several).
	Domain string
	// ID is the underlying reservation identifier (a pool's table
	// handle, the RAR id for network reservations).
	ID string
}

func (h Handle) String() string {
	return fmt.Sprintf("%s:%s:%s", h.Type, h.Domain, h.ID)
}

// Requester abstracts a principal that can issue network reservation
// requests; the experiment harness's User satisfies it.
type Requester interface {
	// DN is the requesting identity.
	DN() identity.DN
	// ReserveE2E propagates a request hop-by-hop from the source
	// domain's broker.
	ReserveE2E(spec *core.Spec) (*signalling.ResultPayload, error)
	// ReserveLocalAt reserves in one domain only.
	ReserveLocalAt(domain string, spec *core.Spec) (*signalling.ResultPayload, error)
	// Cancel withdraws the RAR at the given domain.
	Cancel(domain, rarID string) error
}

// Strategy selects how the end-to-end network API propagates a
// reservation across the path's domains.
type Strategy int

// End-to-end propagation strategies.
const (
	// Sequential contacts each broker on the path in order from the
	// source domain (GARA's default end-to-end API behaviour).
	Sequential Strategy = iota
	// Concurrent contacts all brokers in parallel ("or if optimized,
	// concurrently"); the paper notes this can beat hop-by-hop on
	// latency because the per-domain reservations overlap.
	Concurrent
	// HopByHop delegates propagation to the brokers themselves
	// (the paper's Approach 2).
	HopByHop
)

func (s Strategy) String() string {
	switch s {
	case Sequential:
		return "source-domain-sequential"
	case Concurrent:
		return "source-domain-concurrent"
	case HopByHop:
		return "hop-by-hop"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// NetworkAPI is GARA's end-to-end network reservation library.
type NetworkAPI struct {
	Topo *topology.Topology
}

// NewNetworkAPI creates the library over a topology.
func NewNetworkAPI(topo *topology.Topology) *NetworkAPI {
	return &NetworkAPI{Topo: topo}
}

// pathDomains resolves the domains a spec's flow traverses.
func (api *NetworkAPI) pathDomains(spec *core.Spec) ([]string, error) {
	return api.Topo.Path(spec.SourceDomain, spec.DestDomain)
}

// Reserve performs an end-to-end network reservation with the chosen
// strategy. The returned result is the grant (hop-by-hop: the
// aggregated result; source-domain: a synthesised result whose
// approvals collect the per-domain grants). On any per-domain failure
// the already-acquired domains are rolled back.
func (api *NetworkAPI) Reserve(req Requester, spec *core.Spec, strategy Strategy) (*signalling.ResultPayload, error) {
	switch strategy {
	case HopByHop:
		return req.ReserveE2E(spec)
	case Sequential:
		return api.reserveSequential(req, spec)
	case Concurrent:
		return api.reserveConcurrent(req, spec)
	default:
		return nil, fmt.Errorf("gara: unknown strategy %v", strategy)
	}
}

func (api *NetworkAPI) reserveSequential(req Requester, spec *core.Spec) (*signalling.ResultPayload, error) {
	domains, err := api.pathDomains(spec)
	if err != nil {
		return nil, err
	}
	out := &signalling.ResultPayload{Granted: true}
	var acquired []string
	for _, dom := range domains {
		res, err := req.ReserveLocalAt(dom, spec)
		if err != nil || !res.Granted {
			api.rollback(req, spec.RARID, acquired)
			reason := fmt.Sprintf("transport error: %v", err)
			if err == nil {
				reason = res.Reason
			}
			return &signalling.ResultPayload{Granted: false, Reason: fmt.Sprintf("%s: %s", dom, reason)}, nil
		}
		acquired = append(acquired, dom)
		out.Approvals = append(out.Approvals, res.Approvals...)
	}
	return out, nil
}

func (api *NetworkAPI) reserveConcurrent(req Requester, spec *core.Spec) (*signalling.ResultPayload, error) {
	domains, err := api.pathDomains(spec)
	if err != nil {
		return nil, err
	}
	type outcome struct {
		dom string
		res *signalling.ResultPayload
		err error
	}
	results := make([]outcome, len(domains))
	var wg sync.WaitGroup
	for i, dom := range domains {
		wg.Add(1)
		go func(i int, dom string) {
			defer wg.Done()
			res, err := req.ReserveLocalAt(dom, spec)
			results[i] = outcome{dom: dom, res: res, err: err}
		}(i, dom)
	}
	wg.Wait()
	out := &signalling.ResultPayload{Granted: true}
	var acquired []string
	var failure string
	for _, r := range results {
		switch {
		case r.err != nil:
			failure = fmt.Sprintf("%s: %v", r.dom, r.err)
		case !r.res.Granted:
			failure = fmt.Sprintf("%s: %s", r.dom, r.res.Reason)
		default:
			acquired = append(acquired, r.dom)
			out.Approvals = append(out.Approvals, r.res.Approvals...)
		}
	}
	if failure != "" {
		api.rollback(req, spec.RARID, acquired)
		return &signalling.ResultPayload{Granted: false, Reason: failure}, nil
	}
	return out, nil
}

func (api *NetworkAPI) rollback(req Requester, rarID string, acquired []string) {
	for _, dom := range acquired {
		_ = req.Cancel(dom, rarID)
	}
}

// Cancel withdraws an end-to-end reservation made with the given
// strategy.
func (api *NetworkAPI) Cancel(req Requester, spec *core.Spec, strategy Strategy) error {
	switch strategy {
	case HopByHop:
		return req.Cancel(spec.SourceDomain, spec.RARID)
	default:
		domains, err := api.pathDomains(spec)
		if err != nil {
			return err
		}
		var firstErr error
		for _, dom := range domains {
			if err := req.Cancel(dom, spec.RARID); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
}

// Coordinator is the STARS-style reservation coordinator baseline: a
// separate source-domain entity trusted by all brokers that performs
// the end-to-end reservation on the user's behalf. It removes the
// need for every broker to know every user, but still "require[s] a
// direct trust relationship between all intermediate and possible
// end-domains" and the coordinator.
type Coordinator struct {
	api *NetworkAPI
	// Agent is the coordinator's own requester identity (trusted by
	// all domains).
	Agent Requester
}

// NewCoordinator builds an RC over the network API.
func NewCoordinator(api *NetworkAPI, agent Requester) *Coordinator {
	return &Coordinator{api: api, Agent: agent}
}

// ReserveFor performs the end-to-end reservation for the user's spec,
// re-issued under the coordinator's identity (the RC is what the
// domains authenticate).
func (c *Coordinator) ReserveFor(userSpec *core.Spec, strategy Strategy) (*core.Spec, *signalling.ResultPayload, error) {
	if strategy == HopByHop {
		return nil, nil, fmt.Errorf("gara: the coordinator baseline uses source-domain strategies")
	}
	spec := *userSpec
	spec.RARID = core.NewRARID()
	spec.User = c.Agent.DN()
	res, err := c.api.Reserve(c.Agent, &spec, strategy)
	if err != nil {
		return nil, nil, err
	}
	return &spec, res, nil
}

// Coreservation ------------------------------------------------------------

// CoRequest describes an all-or-nothing multi-resource reservation:
// the network flow plus an amount of each named destination pool
// (Figure 5: "the use of the GARA API to couple a multi-domain network
// reservation with a CPU reservation in domain C").
type CoRequest struct {
	Spec *core.Spec
	// Pools asks each named destination pool for that amount over the
	// spec's window: {"cpu": 4} is four processors.
	Pools map[string]units.Bandwidth
}

// CoReserver holds the destination's resource pools, keyed by the name
// a RAR links them under.
type CoReserver struct {
	API   *NetworkAPI
	Pools map[string]*resv.Table
}

// Reserve acquires the pools first (cheap, local), in name order, links
// their handles into the network spec, then performs the network
// reservation hop by hop; any failure rolls everything back.
func (c *CoReserver) Reserve(req Requester, co CoRequest) ([]Handle, *signalling.ResultPayload, error) {
	if co.Spec == nil {
		return nil, nil, fmt.Errorf("gara: co-reservation without network spec")
	}
	var handles []Handle
	rollback := func() {
		for _, h := range handles {
			_ = c.Pools[string(h.Type)].Cancel(h.ID)
		}
	}
	names := make([]string, 0, len(co.Pools))
	for name := range co.Pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pool := c.Pools[name]
		if pool == nil {
			rollback()
			return nil, nil, fmt.Errorf("gara: no %s pool at destination", name)
		}
		r, err := pool.Admit(resv.AdmitRequest{User: req.DN(), Bandwidth: co.Pools[name], Window: co.Spec.Window})
		if err != nil {
			rollback()
			return nil, nil, fmt.Errorf("gara: %s co-reservation: %w", name, err)
		}
		handles = append(handles, Handle{Type: ResourceType(name), Domain: co.Spec.DestDomain, ID: r.Handle})
		if co.Spec.LinkedHandles == nil {
			co.Spec.LinkedHandles = make(map[string]string, len(names))
		}
		co.Spec.LinkedHandles[name] = r.Handle
	}
	res, err := c.API.Reserve(req, co.Spec, HopByHop)
	if err != nil || !res.Granted {
		rollback()
		if err != nil {
			return nil, nil, err
		}
		return nil, res, nil
	}
	handles = append(handles, Handle{Type: Network, ID: co.Spec.RARID})
	return handles, res, nil
}
