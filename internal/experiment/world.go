// Package experiment builds complete multi-domain testbeds: per-domain
// CAs, brokers, policy servers and reservation tables wired over an
// in-memory network with configurable signalling latency, plus the
// shared CAS and group servers. Every figure experiment, the bb/gara
// test suites and the benchmark harness build on it.
package experiment

import (
	"fmt"
	"path/filepath"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/cas"
	"e2eqos/internal/dataplane/netsimdp"
	"e2eqos/internal/group"
	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/obs"
	"e2eqos/internal/pki"
	"e2eqos/internal/policy"
	"e2eqos/internal/policysrv"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/topology"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// WorldConfig parameterises a testbed.
type WorldConfig struct {
	// NumDomains builds a linear chain when Topo is nil.
	NumDomains int
	// Labels optionally names the domains (default Domain0..N-1).
	Labels []string
	// Topo overrides the linear default.
	Topo *topology.Topology
	// Capacity is each domain's premium aggregate (default 100 Mb/s).
	Capacity units.Bandwidth
	// Capacities overrides Capacity for specific domains.
	Capacities map[string]units.Bandwidth
	// SLARate is the contracted peering rate (default Capacity).
	SLARate units.Bandwidth
	// Latency is the one-way signalling latency (default 0).
	Latency time.Duration
	// Policies maps domain name -> policy; missing domains get
	// policy.DefaultText.
	Policies map[string]*policy.Policy
	// TrustUserCAEverywhere makes every broker root the user CA — the
	// requirement of the source-domain baseline ("each BB must know
	// about (and be able to authenticate) Alice").
	TrustUserCAEverywhere bool
	// TrustedGroups lists group names every policy server delegates to
	// the shared group server.
	TrustedGroups []string
	// Pools gives a domain co-managed resource pools: by the name a RAR
	// links one under ("cpu", "disk"), its capacity (a processor count,
	// a disk rate).
	Pools map[string]map[string]units.Bandwidth
	// Clock is the shared time source (default time.Now).
	Clock func() time.Time
	// Seed is not read: bench/ sets it, and every driver built on a
	// world seeds itself from its own config.
	Seed uint64

	// CallTimeout bounds every signalling call made by brokers and by
	// users created with NewUser (0 = wait forever).
	CallTimeout time.Duration
	// Broker is the template every broker in the world is built from:
	// the retry, breaker, multipath, sampling, election and logging
	// settings bbd reads from its config file. BuildWorld copies it per
	// member and overwrites what the World itself decides: Domain, Key,
	// Cert, Trust, Policy, Capacity, Topo, Peers, PeerAddrs, Dialer,
	// Pools, Plane, Clock, CallTimeout, Metrics, EventsDir, StateDir,
	// Fsync, ReplicaID, ReplicaAddrs and StartAsFollower. Its
	// ElectionTimeout arms automatic failover in a replicated world, but
	// the World does not follow an automatic win: the domain's
	// well-known address, BBs and the other views stay on the dead
	// leader until PromoteReplica names the winner.
	Broker bb.Config
	// WrapDialer, when set, wraps each broker's outbound dialer —
	// the hook the fault-injection experiments use to subject a
	// specific hop to failure.
	WrapDialer func(domain string, d transport.Dialer) transport.Dialer
	// WrapListener, when set, wraps the listener each member of a
	// replica group serves at its replica address — where a follower
	// receives its leader's stream — so a test can see, or overwrite,
	// every frame a follower is handed.
	WrapListener func(domain string, replica int, ln transport.Listener) transport.Listener

	// EnableObs gives every broker its own metrics registry (exposed as
	// World.Metrics) and wires transport counters onto the shared
	// in-memory network. Off by default: most experiments and the
	// benchmarks measure the uninstrumented baseline.
	EnableObs bool
	// EventsDir, when set, gives every broker a flight recorder writing
	// to EventsDir/<domain>, sampling ingress requests at
	// Broker.SampleRate (denials and errors are always recorded). Each
	// broker opens and closes its own, as it does its journal: a broker
	// rebuilt after CrashDomain or KillLeader reopens the same directory
	// and appends after what its predecessor recorded.
	EventsDir string

	// StateDir, when set, makes every broker durable: each journals to
	// its own subdirectory StateDir/<domain>, and
	// RestartDomainFromJournal can rebuild a crashed broker from it.
	// Empty keeps brokers memory-only.
	StateDir string
	// Replicas > 1 makes every domain's broker a replica group of that
	// size: replica 0 boots as leader serving the domain's well-known
	// address, the rest boot as followers listening only on their
	// replica addresses ("bb.<domain>.r<i>"). Requires StateDir — the
	// replication stream is the journal. KillLeader / PromoteReplica
	// / PromoteAny drive failover. Otherwise each domain is a group of
	// one.
	Replicas int
	// FsyncPolicy selects the journal durability policy for every
	// broker: "batch" (default), "always" or "never". Only meaningful
	// with StateDir set.
	FsyncPolicy string
}

// World is a running testbed.
type World struct {
	Net     *transport.Network
	Topo    *topology.Topology
	Domains []string
	// BBs, Planes and Metrics show each domain's front: the broker
	// serving its well-known address, and after a PromoteReplica the
	// promoted one.
	BBs     map[string]*bb.BB
	BBCerts map[string]*pki.Certificate
	// UserCA issues end-user certificates (it is domain 0's CA).
	UserCA *pki.CA
	CAS    *cas.Server
	Groups *group.Server
	// Pools holds each domain's co-managed pools (WorldConfig.Pools),
	// shared by every member of its group.
	Pools  map[string]map[string]*resv.Table
	Planes map[string]*netsimdp.Plane
	// Metrics holds each domain's broker registry (none unless
	// WorldConfig.EnableObs); NetMetrics aggregates transport counters
	// across the whole in-memory network.
	Metrics    map[string]*obs.Registry
	NetMetrics *obs.Registry

	// stops stops the server at each running domain's well-known
	// address.
	stops map[string]func()
	// members holds every broker built for a domain, in replica order —
	// one for an unreplicated domain — and leaders which of them fronts
	// it.
	members     map[string][]*member
	leaders     map[string]int
	clock       func() time.Time
	callTimeout time.Duration
}

// member is one broker the World built: its config (what
// RestartDomainFromJournal rebuilds it from, and where its plane,
// registry and recorder live), the endpoint it dials and listens on,
// what stops the server on its replica address (nil in a group of one)
// and whether it has been killed. Dead members stay: their tables are
// still inspectable.
type member struct {
	broker      *bb.BB
	cfg         bb.Config
	endpoint    *transport.Endpoint
	stopReplica func()
	alive       bool
}

// addrOf is the in-memory address convention for a broker.
func addrOf(domain string) string { return "bb." + domain }

// replicaAddrOf is the address convention for one member of a
// domain's replica group; the leader additionally serves addrOf.
func replicaAddrOf(domain string, i int) string {
	return fmt.Sprintf("bb.%s.r%d", domain, i)
}

// BuildWorld assembles and starts a testbed. When it fails it closes
// whatever it had already started.
func BuildWorld(cfg WorldConfig) (_ *World, err error) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 100 * units.Mbps
	}
	if cfg.SLARate <= 0 {
		cfg.SLARate = cfg.Capacity
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	topo := cfg.Topo
	if topo == nil {
		if cfg.NumDomains < 1 {
			return nil, fmt.Errorf("experiment: need at least one domain")
		}
		var err error
		topo, err = topology.Linear(cfg.NumDomains, cfg.Capacity, cfg.Labels...)
		if err != nil {
			return nil, err
		}
	}
	w := &World{
		Net:         transport.NewNetwork(cfg.Latency),
		Topo:        topo,
		Domains:     topo.Domains(),
		BBs:         make(map[string]*bb.BB),
		BBCerts:     make(map[string]*pki.Certificate),
		Pools:       make(map[string]map[string]*resv.Table),
		Planes:      make(map[string]*netsimdp.Plane),
		Metrics:     make(map[string]*obs.Registry),
		stops:       make(map[string]func()),
		members:     make(map[string][]*member),
		leaders:     make(map[string]int),
		clock:       cfg.Clock,
		callTimeout: cfg.CallTimeout,
	}
	defer func() {
		if err != nil {
			w.Close()
		}
	}()
	fsync, err := journal.ParsePolicy(cfg.FsyncPolicy)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	if cfg.EnableObs {
		w.NetMetrics = obs.NewRegistry()
		w.Net.Metrics = transport.NewMetrics(w.NetMetrics)
	}

	// Shared authorization infrastructure.
	casKey, err := identity.GenerateKeyPair(identity.NewDN("ESnet", "", "CAS"))
	if err != nil {
		return nil, err
	}
	w.CAS = cas.NewServer(casKey)
	w.Groups = group.NewServer()

	// Per-domain material.
	type domainMaterial struct {
		ca    *pki.CA
		key   *identity.KeyPair
		cert  *pki.Certificate
		trust *pki.TrustStore
	}
	mat := make(map[string]*domainMaterial, len(w.Domains))
	addrs := make(map[identity.DN]string, len(w.Domains))
	for i, name := range w.Domains {
		ca, err := pki.NewCA(identity.NewDN("Grid", name, "CA"))
		if err != nil {
			return nil, err
		}
		d, _ := topo.Domain(name)
		key, err := identity.GenerateKeyPair(d.BBDN)
		if err != nil {
			return nil, err
		}
		cert, err := ca.IssueIdentity(key.DN, key.Public(), 0, "bb")
		if err != nil {
			return nil, err
		}
		trust := pki.NewTrustStore(pki.DefaultIntroducerDepth)
		mat[name] = &domainMaterial{ca: ca, key: key, cert: cert, trust: trust}
		w.BBCerts[name] = cert
		addrs[key.DN] = addrOf(name)
		if i == 0 {
			w.UserCA = ca
		}
	}

	// Trust wiring: each broker roots its own CA (local users) and — in
	// baseline mode — the user CA; bb.New pins its peers.
	for _, m := range mat {
		own := &pki.Certificate{Cert: m.ca.Certificate(), DER: m.ca.CertificateDER()}
		if err := m.trust.AddRoot(own); err != nil {
			return nil, err
		}
		if cfg.TrustUserCAEverywhere && w.UserCA != nil {
			userRoot := &pki.Certificate{Cert: w.UserCA.Certificate(), DER: w.UserCA.CertificateDER()}
			if err := m.trust.AddRoot(userRoot); err != nil {
				return nil, err
			}
		}
	}

	// Brokers.
	for _, name := range w.Domains {
		m := mat[name]
		pol := cfg.Policies[name]
		if pol == nil {
			pol = policy.MustParse("default-"+name, policy.DefaultText)
		}
		ps := policysrv.New(name, pol)
		ps.SetClock(cfg.Clock)
		ps.TrustCAS(w.CAS.Community(), w.CAS.Key().Public())
		for _, g := range cfg.TrustedGroups {
			ps.TrustGroupServer(g, w.Groups)
		}

		var peers []bb.Peering
		for _, neighbor := range topo.Neighbors(name) {
			peers = append(peers, bb.Peering{Domain: neighbor, Cert: mat[neighbor].cert, SLARate: cfg.SLARate})
		}

		pools := make(map[string]*resv.Table, len(cfg.Pools[name]))
		for resource, capacity := range cfg.Pools[name] {
			if pools[resource], err = resv.NewTable(resource+"-"+name, capacity); err != nil {
				return nil, err
			}
		}
		w.Pools[name] = pools

		capacity := cfg.Capacity
		if c, ok := cfg.Capacities[name]; ok {
			capacity = c
		}
		size := max(cfg.Replicas, 1)
		var replicaAddrs map[int]string
		if size > 1 {
			replicaAddrs = make(map[int]string, size)
			for i := 0; i < size; i++ {
				replicaAddrs[i] = replicaAddrOf(name, i)
			}
		}
		for i := 0; i < size; i++ {
			// A member of a group of more than one keeps its journal and
			// events in a subdirectory of its own.
			sub := name
			if size > 1 {
				sub = filepath.Join(name, fmt.Sprintf("r%d", i))
			}
			endpoint := w.Net.NewEndpoint(m.key.DN, m.cert.DER)
			var dialer transport.Dialer = endpoint
			if cfg.WrapDialer != nil {
				dialer = cfg.WrapDialer(name, endpoint)
			}
			bcfg := cfg.Broker
			bcfg.Domain, bcfg.Key, bcfg.Cert, bcfg.Trust, bcfg.Policy = name, m.key, m.cert, m.trust, ps
			bcfg.Capacity, bcfg.Topo, bcfg.Peers, bcfg.PeerAddrs = capacity, topo, peers, addrs
			bcfg.Dialer, bcfg.Pools, bcfg.Plane = dialer, pools, netsimdp.New()
			bcfg.Clock, bcfg.CallTimeout = cfg.Clock, cfg.CallTimeout
			bcfg.Metrics, bcfg.EventsDir, bcfg.StateDir, bcfg.Fsync = nil, "", "", fsync
			bcfg.ReplicaID, bcfg.ReplicaAddrs, bcfg.StartAsFollower = i, replicaAddrs, i != 0
			if cfg.EnableObs {
				bcfg.Metrics = obs.NewRegistry()
			}
			if cfg.EventsDir != "" {
				bcfg.EventsDir = filepath.Join(cfg.EventsDir, sub)
			}
			if cfg.StateDir != "" {
				bcfg.StateDir = filepath.Join(cfg.StateDir, sub)
			}
			broker, err := bb.New(bcfg)
			if err != nil {
				return nil, err
			}
			mb := &member{broker: broker, cfg: bcfg, endpoint: endpoint, alive: true}
			w.members[name] = append(w.members[name], mb)
			if addr, ok := replicaAddrs[i]; ok {
				var wrap func(transport.Listener) transport.Listener
				if cfg.WrapListener != nil {
					wrap = func(ln transport.Listener) transport.Listener { return cfg.WrapListener(name, i, ln) }
				}
				if mb.stopReplica, err = serve(endpoint, addr, broker, wrap); err != nil {
					return nil, err
				}
			}
		}
		// Replica 0 (or the sole broker) fronts the domain: it is what the
		// rest of the world sees through addrOf.
		w.front(name, 0)
		if err := w.startDomain(name); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// front makes member i the domain's front: the broker its well-known
// address serves from the next startDomain on, and what BBs, Planes
// and Metrics show for it.
func (w *World) front(name string, i int) {
	m := w.members[name][i]
	w.leaders[name] = i
	w.BBs[name] = m.broker
	w.Planes[name] = m.cfg.Plane.(*netsimdp.Plane)
	if m.cfg.Metrics != nil {
		w.Metrics[name] = m.cfg.Metrics
	}
}

// serve listens at addr on ep and serves broker there, through wrap
// when it is set. What it returns stops the server and closes the
// listener itself, which a Serve goroutine that has not started yet
// would leave bound, so the address is free again when it returns.
func serve(ep *transport.Endpoint, addr string, broker *bb.BB, wrap func(transport.Listener) transport.Listener) (func(), error) {
	ln, err := ep.Listen(addr)
	if err != nil {
		return nil, err
	}
	srv := signalling.NewServer(broker, broker.Logger())
	if wrap != nil {
		go srv.Serve(wrap(ln))
	} else {
		go srv.Serve(ln)
	}
	return func() { srv.Shutdown(); ln.Close() }, nil
}

// startDomain serves the domain's front broker at its well-known
// address, tracking the server for StopDomain/Close.
func (w *World) startDomain(name string) error {
	ms, ok := w.members[name]
	if !ok {
		return fmt.Errorf("experiment: unknown domain %q", name)
	}
	m := ms[w.leaders[name]]
	stop, err := serve(m.endpoint, addrOf(name), m.broker, nil)
	if err != nil {
		return err
	}
	w.stops[name] = stop
	return nil
}

// StopDomain kills a domain's broker frontend: its listener and every
// established signalling connection drop, exactly as if the broker
// process died. The broker's in-memory state (tables, routes) is kept,
// so RestartDomain models a fast restart with state intact.
func (w *World) StopDomain(name string) error {
	stop, ok := w.stops[name]
	if !ok {
		return fmt.Errorf("experiment: domain %q is not running", name)
	}
	stop()
	delete(w.stops, name)
	return nil
}

// RestartDomain brings a stopped domain's broker frontend back at the
// same address; peers reconnect on their next call.
func (w *World) RestartDomain(name string) error {
	if _, running := w.stops[name]; running {
		return fmt.Errorf("experiment: domain %q is already running", name)
	}
	return w.startDomain(name)
}

// CrashDomain kills an unreplicated domain the hard way: the frontend
// drops (like StopDomain) and the broker itself dies mid-flight —
// outbound clients close and its journal is abandoned without a flush,
// exactly as a killed process would leave it. Only
// RestartDomainFromJournal can bring the domain back.
func (w *World) CrashDomain(name string) error {
	if len(w.members[name]) > 1 {
		return fmt.Errorf("experiment: domain %q is a replica group; use KillLeader", name)
	}
	if err := w.StopDomain(name); err != nil {
		return err
	}
	w.BBs[name].Crash()
	return nil
}

// RestartDomainFromJournal rebuilds a stopped (or crashed) unreplicated
// domain's broker from scratch and brings its frontend back: the new
// broker recovers its reservation table and RAR replay cache from the
// journal directory the old one wrote. Requires WorldConfig.StateDir.
// The rebuilt broker gets a fresh metrics registry (metric names
// register exactly once per registry), which replaces the domain's
// entry in World.Metrics.
func (w *World) RestartDomainFromJournal(name string) error {
	ms, ok := w.members[name]
	switch {
	case !ok:
		return fmt.Errorf("experiment: unknown domain %q", name)
	case len(ms) > 1:
		return fmt.Errorf("experiment: domain %q is a replica group; use PromoteReplica", name)
	}
	if _, running := w.stops[name]; running {
		return fmt.Errorf("experiment: domain %q is already running", name)
	}
	m := ms[0]
	if m.cfg.StateDir == "" {
		return fmt.Errorf("experiment: domain %q has no journal (WorldConfig.StateDir unset)", name)
	}
	m.broker.Close() // idempotent after Crash; releases any leftover clients
	if m.cfg.Metrics != nil {
		m.cfg.Metrics = obs.NewRegistry()
	}
	broker, err := bb.New(m.cfg)
	if err != nil {
		return fmt.Errorf("experiment: rebuilding %q from journal: %w", name, err)
	}
	m.broker = broker
	w.front(name, 0)
	return w.startDomain(name)
}

// ---------------------------------------------------------------------
// Replica-group failover controls.

// LeaderOf returns the replica currently fronting the domain's
// well-known address (0 in an unreplicated domain, a group of one; -1
// for an unknown domain).
func (w *World) LeaderOf(name string) int {
	if _, ok := w.members[name]; !ok {
		return -1
	}
	return w.leaders[name]
}

// ReplicaBB returns one member of a domain's replica group — replica 0
// of an unreplicated domain is its broker — or nil for an out-of-range
// index. Dead replicas are returned too: their tables are still
// inspectable.
func (w *World) ReplicaBB(name string, i int) *bb.BB {
	ms := w.members[name]
	if i < 0 || i >= len(ms) {
		return nil
	}
	return ms[i].broker
}

// group returns the members of a replicated domain.
func (w *World) group(name string) ([]*member, error) {
	ms := w.members[name]
	if len(ms) < 2 {
		return nil, fmt.Errorf("experiment: domain %q is not a replica group", name)
	}
	return ms, nil
}

// KillLeader kills the domain's current leader the hard way: the
// public frontend and the leader's replica listener drop, and the
// broker dies mid-flight without a journal flush — outbound clients
// close, buffered batch-fsync records are lost, exactly as a killed
// process. Returns the killed replica's index. The domain serves
// nothing until PromoteReplica/PromoteAny installs a successor.
func (w *World) KillLeader(name string) (int, error) {
	ms, err := w.group(name)
	if err != nil {
		return -1, err
	}
	idx := w.leaders[name]
	m := ms[idx]
	if !m.alive {
		return -1, fmt.Errorf("experiment: domain %q leader (replica %d) is already dead", name, idx)
	}
	if stop, ok := w.stops[name]; ok {
		stop()
		delete(w.stops, name)
	}
	m.stopReplica()
	m.broker.Crash()
	m.alive = false
	return idx, nil
}

// PromoteReplica stands replica i for election and, on a win, makes it
// the domain's front (BBs, Planes, Metrics) and its public
// face: the well-known address re-listens backed by the promoted
// broker, so peers' pooled clients transparently redial into the new
// leader. Fails if the replica is dead or loses the election (e.g. its
// applied sequence trails a voter's).
func (w *World) PromoteReplica(name string, i int) error {
	ms, err := w.group(name)
	switch {
	case err != nil:
		return err
	case i < 0 || i >= len(ms):
		return fmt.Errorf("experiment: domain %q has no replica %d", name, i)
	case !ms[i].alive:
		return fmt.Errorf("experiment: replica %d of %q is dead", i, name)
	}
	if err := ms[i].broker.Promote(); err != nil {
		return err
	}
	w.front(name, i)
	if _, running := w.stops[name]; !running {
		return w.startDomain(name)
	}
	return nil
}

// PromoteAny promotes the first live replica that can win an election,
// returning its index. Replicas whose applied sequence trails a
// voter's lose — the election restriction that keeps every committed
// record on whoever wins — so this tries each in turn.
func (w *World) PromoteAny(name string) (int, error) {
	ms, err := w.group(name)
	if err != nil {
		return -1, err
	}
	var lastErr error
	for i, m := range ms {
		if !m.alive {
			continue
		}
		if err := w.PromoteReplica(name, i); err != nil {
			lastErr = err
			continue
		}
		return i, nil
	}
	return -1, fmt.Errorf("experiment: no replica of %q could win an election: %v", name, lastErr)
}

// Close stops all listeners, established connections and brokers.
func (w *World) Close() {
	for _, stop := range w.stops {
		stop()
	}
	w.stops = make(map[string]func())
	for _, ms := range w.members {
		for _, m := range ms {
			if m.stopReplica != nil {
				m.stopReplica()
			}
			m.broker.Close()
		}
	}
}

// SourceDomain returns the first domain (where users live by default).
func (w *World) SourceDomain() string { return w.Domains[0] }

// DestDomain returns the last domain.
func (w *World) DestDomain() string { return w.Domains[len(w.Domains)-1] }

// BBAddr returns the signalling address of a domain's broker.
func (w *World) BBAddr(domain string) string { return addrOf(domain) }

// CounterTotal sums one counter (or any scalar series) across every
// domain's registry — the world-level view of e.g.
// "bb_retries_total". Zero when observability is disabled.
func (w *World) CounterTotal(name string) float64 {
	var total float64
	for _, reg := range w.Metrics {
		if v, ok := reg.Snapshot()[name]; ok {
			total += v
		}
	}
	return total
}

// MetricsSnapshot returns each domain's point-in-time metric values,
// keyed by domain. Nil registries (obs disabled) yield no entries.
func (w *World) MetricsSnapshot() map[string]map[string]float64 {
	out := make(map[string]map[string]float64, len(w.Metrics))
	for name, reg := range w.Metrics {
		out[name] = reg.Snapshot()
	}
	return out
}
