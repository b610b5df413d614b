// Package topology models the inter-domain structure of the testbed:
// administrative domains, their peering links, host-to-domain routing,
// and inter-domain path computation. The GARA end-to-end library uses
// it to determine "the relevant BBs" for a source/destination pair;
// bandwidth brokers use it to find their next hop toward a destination
// domain.
package topology

import (
	"fmt"
	"sort"
	"sync"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
)

// Domain describes one administrative domain.
type Domain struct {
	// Name is the domain identifier, e.g. "DomainA".
	Name string
	// BBDN is the distinguished name of the domain's bandwidth broker.
	BBDN identity.DN
}

// Link is a bidirectional peering between two domains with a physical
// capacity.
type Link struct {
	A, B     string
	Capacity units.Bandwidth
	// Cost is the routing metric; 0 means 1.
	Cost int
}

func (l Link) cost() int {
	if l.Cost <= 0 {
		return 1
	}
	return l.Cost
}

// pathKey indexes the disjoint-path cache by endpoint pair.
type pathKey struct{ src, dst string }

// Topology is the peering graph. It is safe for concurrent use.
type Topology struct {
	mu      sync.RWMutex
	domains map[string]*Domain
	// adj maps domain -> neighbor -> link.
	adj map[string]map[string]Link
	// byBB is the reverse index from a broker DN to its domain name,
	// maintained by AddDomain so DomainOfBB is a map lookup instead of
	// a scan over every domain (it sits on the per-request signalling
	// path, where brokers resolve the authenticated upstream hop).
	byBB map[identity.DN]string
	// paths caches the full edge-disjoint path set per (src, dst), so
	// Path/NextHop on the per-RAR forwarding path are map lookups
	// instead of a Dijkstra run each. Invalidated wholesale on any
	// topology mutation; entries are computed lazily on first use.
	// Cached slices are shared with callers and must not be mutated.
	paths map[pathKey][][]string
}

// New creates an empty topology.
func New() *Topology {
	return &Topology{
		domains: make(map[string]*Domain),
		adj:     make(map[string]map[string]Link),
		byBB:    make(map[identity.DN]string),
		paths:   make(map[pathKey][][]string),
	}
}

// AddDomain registers a domain; re-adding replaces its metadata.
func (t *Topology) AddDomain(d Domain) error {
	if d.Name == "" {
		return fmt.Errorf("topology: empty domain name")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if old := t.domains[d.Name]; old != nil && old.BBDN != "" && t.byBB[old.BBDN] == d.Name {
		delete(t.byBB, old.BBDN)
	}
	dd := d
	t.domains[d.Name] = &dd
	if d.BBDN != "" {
		t.byBB[d.BBDN] = d.Name
	}
	if t.adj[d.Name] == nil {
		t.adj[d.Name] = make(map[string]Link)
	}
	t.invalidatePathsLocked()
	return nil
}

// invalidatePathsLocked drops every cached path set; callers hold t.mu.
func (t *Topology) invalidatePathsLocked() {
	if len(t.paths) > 0 {
		t.paths = make(map[pathKey][][]string)
	}
}

// DomainOfBB resolves a broker DN to the domain it controls.
func (t *Topology) DomainOfBB(dn identity.DN) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	name, ok := t.byBB[dn]
	return name, ok
}

// AddLink connects two registered domains.
func (t *Topology) AddLink(l Link) error {
	if l.A == l.B {
		return fmt.Errorf("topology: self link on %s", l.A)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.domains[l.A] == nil {
		return fmt.Errorf("topology: unknown domain %s", l.A)
	}
	if t.domains[l.B] == nil {
		return fmt.Errorf("topology: unknown domain %s", l.B)
	}
	t.adj[l.A][l.B] = l
	rev := l
	rev.A, rev.B = l.B, l.A
	t.adj[l.B][l.A] = rev
	t.invalidatePathsLocked()
	return nil
}

// Domain returns the metadata for name.
func (t *Topology) Domain(name string) (*Domain, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	d, ok := t.domains[name]
	return d, ok
}

// Domains returns all domain names, sorted.
func (t *Topology) Domains() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.domains))
	for name := range t.domains {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Neighbors returns the sorted neighbor names of a domain.
func (t *Topology) Neighbors(name string) []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.adj[name]))
	for n := range t.adj[name] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LinkBetween returns the peering link between two domains.
func (t *Topology) LinkBetween(a, b string) (Link, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	l, ok := t.adj[a][b]
	return l, ok
}

// edgeKey normalises an undirected link to a canonical pair.
func edgeKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// shortestLocked runs Dijkstra from src to dst over link costs,
// ignoring every link in banned (keyed by edgeKey). Ties break toward
// lexicographically smaller names so paths are deterministic. Returns
// nil when dst is unreachable. Callers hold t.mu (read or write).
func (t *Topology) shortestLocked(src, dst string, banned map[[2]string]bool) []string {
	const inf = int(^uint(0) >> 1)
	dist := make(map[string]int, len(t.domains))
	prev := make(map[string]string, len(t.domains))
	visited := make(map[string]bool, len(t.domains))
	for name := range t.domains {
		dist[name] = inf
	}
	dist[src] = 0
	for {
		// Extract the unvisited node with minimal distance,
		// lexicographic tiebreak.
		cur, best := "", inf
		for name, d := range dist {
			if visited[name] || d > best {
				continue
			}
			if d < best || (d == best && (cur == "" || name < cur)) {
				cur, best = name, d
			}
		}
		if cur == "" || best == inf {
			return nil
		}
		if cur == dst {
			break
		}
		visited[cur] = true
		// Deterministic neighbor order.
		neigh := make([]string, 0, len(t.adj[cur]))
		for n := range t.adj[cur] {
			neigh = append(neigh, n)
		}
		sort.Strings(neigh)
		for _, n := range neigh {
			if visited[n] || banned[edgeKey(cur, n)] {
				continue
			}
			l := t.adj[cur][n]
			if nd := dist[cur] + l.cost(); nd < dist[n] {
				dist[n] = nd
				prev[n] = cur
			}
		}
	}
	// Reconstruct.
	var rev []string
	for cur := dst; cur != ""; cur = prev[cur] {
		rev = append(rev, cur)
		if cur == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	path := make([]string, len(rev))
	for i, d := range rev {
		path[len(rev)-1-i] = d
	}
	return path
}

// disjointLocked computes the full edge-disjoint path set from src to
// dst by iterative Dijkstra with edge removal: the minimum-cost path
// first, then the minimum-cost path not sharing an edge with any
// earlier one, until the endpoints disconnect. Successive path costs
// are non-decreasing (each search runs over a subgraph of the last),
// so the set comes out cost-ordered. Callers hold t.mu for writing.
func (t *Topology) disjointLocked(src, dst string) [][]string {
	if src == dst {
		return [][]string{{src}}
	}
	banned := make(map[[2]string]bool)
	var out [][]string
	for {
		p := t.shortestLocked(src, dst, banned)
		if p == nil {
			return out
		}
		out = append(out, p)
		for i := 1; i < len(p); i++ {
			banned[edgeKey(p[i-1], p[i])] = true
		}
	}
}

// Paths returns up to k edge-disjoint domain paths from src to dst
// (inclusive of both endpoints), cost-ordered with the minimum-cost
// path first; k <= 0 returns every disjoint path. Fewer than k paths
// may exist — callers get what the graph has, never an error for
// asking too much. The set is deterministic (lexicographic tiebreaks)
// and served from a cache invalidated on every topology change. The
// returned slices are shared and must not be mutated.
func (t *Topology) Paths(src, dst string, k int) ([][]string, error) {
	t.mu.RLock()
	if t.domains[src] == nil {
		t.mu.RUnlock()
		return nil, fmt.Errorf("topology: unknown source domain %s", src)
	}
	if t.domains[dst] == nil {
		t.mu.RUnlock()
		return nil, fmt.Errorf("topology: unknown destination domain %s", dst)
	}
	all, ok := t.paths[pathKey{src, dst}]
	t.mu.RUnlock()
	if !ok {
		t.mu.Lock()
		if all, ok = t.paths[pathKey{src, dst}]; !ok {
			all = t.disjointLocked(src, dst)
			t.paths[pathKey{src, dst}] = all
		}
		t.mu.Unlock()
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("topology: no path from %s to %s", src, dst)
	}
	if k <= 0 || k > len(all) {
		k = len(all)
	}
	// The result is the cache's own memory, capped at its length so a
	// caller appending to it reallocates instead of writing into the cache.
	return all[:k:k], nil
}

// Path computes the minimum-cost domain path from src to dst (inclusive
// of both endpoints): the first entry of the cached disjoint path set.
func (t *Topology) Path(src, dst string) ([]string, error) {
	ps, err := t.Paths(src, dst, 1)
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// NextHop returns the neighbor of cur on the computed path toward dst.
// Served from the path cache: the per-RAR forwarding path pays a map
// lookup, not a Dijkstra run.
func (t *Topology) NextHop(cur, dst string) (string, error) {
	path, err := t.Path(cur, dst)
	if err != nil {
		return "", err
	}
	if len(path) < 2 {
		return "", fmt.Errorf("topology: %s is the destination", cur)
	}
	return path[1], nil
}

// Linear builds the canonical N-domain chain topology of the paper's
// figures: Domain0 - Domain1 - ... - Domain{n-1}, each with a BB DN
// "/O=Grid/OU=Domain<i>/CN=bb-<i>" and host prefix "host<i>.".
// Names may be overridden by passing explicit labels.
func Linear(n int, capacity units.Bandwidth, labels ...string) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: need at least one domain")
	}
	if len(labels) != 0 && len(labels) != n {
		return nil, fmt.Errorf("topology: got %d labels for %d domains", len(labels), n)
	}
	t := New()
	name := func(i int) string {
		if len(labels) == n {
			return labels[i]
		}
		return fmt.Sprintf("Domain%d", i)
	}
	for i := 0; i < n; i++ {
		d := Domain{Name: name(i), BBDN: identity.NewDN("Grid", name(i), fmt.Sprintf("bb-%d", i))}
		if err := t.AddDomain(d); err != nil {
			return nil, err
		}
	}
	for i := 1; i < n; i++ {
		if err := t.AddLink(Link{A: name(i - 1), B: name(i), Capacity: capacity}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Multi builds a source–mesh–destination topology with `branches`
// edge-disjoint two-hop paths between Domain0 (the source) and
// Domain{branches+1} (the destination): Domain0 peers with every mid
// domain Domain1..Domain{branches}, each of which peers with the
// destination. Branch i's links carry cost i, so the disjoint path set
// comes out in a deterministic order — the branch through Domain1 is
// always the primary. Its BB DNs follow Linear's naming, so the experiment world wires it unchanged.
func Multi(branches int, capacity units.Bandwidth) (*Topology, error) {
	if branches < 1 {
		return nil, fmt.Errorf("topology: need at least one branch")
	}
	n := branches + 2
	t := New()
	name := func(i int) string { return fmt.Sprintf("Domain%d", i) }
	for i := 0; i < n; i++ {
		d := Domain{Name: name(i), BBDN: identity.NewDN("Grid", name(i), fmt.Sprintf("bb-%d", i))}
		if err := t.AddDomain(d); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= branches; i++ {
		if err := t.AddLink(Link{A: name(0), B: name(i), Capacity: capacity, Cost: i}); err != nil {
			return nil, err
		}
		if err := t.AddLink(Link{A: name(i), B: name(n - 1), Capacity: capacity, Cost: i}); err != nil {
			return nil, err
		}
	}
	return t, nil
}
