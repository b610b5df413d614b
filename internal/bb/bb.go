// Package bb implements the bandwidth broker: the per-domain control
// plane entity that "provides admission control and configures the
// edge routers of a single administrative network domain". It ties
// together the core signalling protocol, the policy server, the
// advance-reservation table, the SLA contracts with peered domains,
// the tunnel registrations, and the DiffServ data plane configuration.
package bb

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/dataplane"
	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/obs"
	"e2eqos/internal/pki"
	"e2eqos/internal/policysrv"
	"e2eqos/internal/resv"
	"e2eqos/internal/saga"
	"e2eqos/internal/signalling"
	"e2eqos/internal/sla"
	"e2eqos/internal/topology"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// bucketBytes is the burst allowance configured with every installed
// profile and aggregate.
const bucketBytes = 30_000

// Peering is one SLA-peered neighbour. Hop-by-hop signalling needs
// only neighbour trust, and the extended SLA carries the peered
// brokers' certificates (sla.SLA), so this is all a broker is told
// about a peer: New pins the certificate's key, builds the inbound SLA
// and keys the certificate by its DN for capability delegation.
type Peering struct {
	Domain string
	// Cert is the peer broker's certificate; its subject must be the
	// topology's broker DN for Domain.
	Cert *pki.Certificate
	// SLARate is the contracted premium aggregate entering from the peer.
	SLARate units.Bandwidth
}

// Config assembles a broker.
type Config struct {
	// Domain is the administrative domain this broker controls.
	Domain string
	// Key / Cert are the broker's identity.
	Key  *identity.KeyPair
	Cert *pki.Certificate
	// Trust is the broker's trust store (home CA rooted, introducer-depth
	// policy set); New pins the Peers into it.
	Trust *pki.TrustStore
	// Policy is the domain's policy decision point.
	Policy *policysrv.Server
	// Capacity is the premium aggregate this domain admits.
	Capacity units.Bandwidth
	// Topo is the inter-domain topology used for next-hop selection.
	Topo *topology.Topology
	// Peers are the SLA-peered neighbours.
	Peers []Peering
	// PeerAddrs maps a broker DN to its transport address: a peer's, or
	// a tunnel's far end, which need not be a peer.
	PeerAddrs map[identity.DN]string
	// Dialer opens signalling channels.
	Dialer transport.Dialer
	// Pools are the co-managed local resources (a CPU pool, a disk),
	// keyed by the name a RAR links them under ("cpu", "disk").
	Pools map[string]*resv.Table
	// Plane is the broker's hook into the domain's DiffServ devices —
	// the per-flow edge marker at the first hop (source domains) and
	// the per-aggregate ingress policer — behind the dataplane
	// interface. Nil when the broker runs control-plane-only (daemons,
	// signalling benchmarks).
	Plane dataplane.DataPlane
	// Clock is injectable for tests; defaults to time.Now.
	Clock func() time.Time

	// CallTimeout bounds each downstream signalling call (reserve
	// forwarding, cancel propagation, tunnel allocation). Zero waits
	// forever — the pre-robustness behaviour.
	CallTimeout time.Duration
	// MaxRetries is how many times a transport-failed downstream call
	// is retried (protocol denials are never retried). Zero disables.
	MaxRetries int
	// RetryBackoff is the initial retry delay, doubling per attempt
	// (default 10ms when retries are enabled).
	RetryBackoff time.Duration
	// BreakerThreshold opens a per-peer circuit breaker after that
	// many consecutive transport failures, so calls to a dead
	// neighbour fail fast instead of each waiting out a deadline.
	// Zero disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit refuses calls before
	// letting a probe through (default 5s).
	BreakerCooldown time.Duration
	// MaxPaths enables multipath routing at this broker's ingress: up
	// to MaxPaths edge-disjoint domain paths are tried in cost order
	// when the preferred one is breaker-open, denied mid-chain, or
	// fails in transport. Values <= 1 keep the single-path behaviour.
	MaxPaths int
	// SplitParts caps how many disjoint paths one reservation may be
	// split across when no single path grants it whole (per-path child
	// RARs settling atomically through the saga layer). Values < 2
	// disable splitting. Requires MaxPaths > 1 to matter.
	SplitParts int

	// Logger receives the broker's structured log records; the domain
	// is attached to every record. Nil discards everything.
	Logger *slog.Logger
	// Metrics registers the broker's counters, gauges and histograms.
	// The registry must be dedicated to this broker (metric names are
	// registered exactly once). Nil disables metrics at no cost.
	Metrics *obs.Registry

	// EventsDir, when set, turns on the flight recorder: wide events
	// (sampled plus every denial/rollback/downstream failure) are
	// appended to a bounded event log in this directory. New opens it,
	// resuming the newest segment a previous incarnation left, and
	// Close or Crash closes it. Empty disables the recorder at no cost.
	EventsDir string
	// SampleRate is the probability that a request entering the network
	// at this broker (a user-submitted RAR or a source-side tunnel
	// batch) is flight-recorded. The decision propagates in the
	// signalling payload so mid-chain hops record the same requests
	// instead of rolling their own dice. Zero records only forced
	// events; 1 records everything.
	SampleRate float64

	// StateDir, when set, makes the broker durable: reservation-table
	// mutations and settled RAR outcomes are written to an append-only
	// journal in this directory, and New recovers whatever a previous
	// incarnation persisted there before serving. Empty keeps the
	// broker memory-only (the pre-durability behaviour).
	StateDir string
	// Fsync selects the journal's durability policy (default
	// journal.FsyncBatch). Only meaningful with StateDir set.
	Fsync journal.Policy

	// ReplicaID / ReplicaAddrs turn the broker into one member of a
	// replicated group (DESIGN.md §6.8): ReplicaAddrs maps every
	// replica id in the group — including this broker's own ReplicaID —
	// to its transport address. With fewer than two entries the broker
	// runs unreplicated (the pre-replication behaviour) and ignores
	// ReplicaID, StartAsFollower and ElectionTimeout. New refuses a
	// replica set without StateDir (the stream is the journal) or
	// without its own id.
	ReplicaID    int
	ReplicaAddrs map[int]string
	// StartAsFollower makes the broker boot as a follower awaiting a
	// leader's stream (or an election win). Unset, a replicated broker
	// boots as the group's leader at term 1 — the deployment convention
	// is that exactly one replica (id 0) boots as leader.
	StartAsFollower bool
	// ElectionTimeout, when positive, arms automatic failover: a
	// follower that hears nothing from a leader for this long (scaled
	// up by its replica id, so the group doesn't split its votes)
	// stands for election. Zero leaves promotion to an operator or the
	// experiment harness calling Promote.
	ElectionTimeout time.Duration
}

// route is what a granted reserve left at this hop, for cancellation,
// status and tunnel management: the value of a route entry, journaled
// inside rarRec. A denied reserve's is empty.
type route struct {
	Handle   string
	Tunnel   bool
	SourceBB identity.DN // authenticated source-domain broker (or user)
	// Legs are where the reserve went from here, each under the route
	// key that leg runs under; cancels follow them. None at the end of
	// the line; one on a single path — its key differs from the entry's
	// own when the ingress re-routed onto an alternate path — with BW
	// zero; one per share, BW set, at the ingress of a split.
	Legs []childRoute
}

// childRoute is one downstream leg of a reservation.
type childRoute struct {
	Next identity.DN
	Key  string
	BW   int64 // a split leg's share; zero for a whole reservation
}

// BB is a bandwidth broker.
type BB struct {
	cfg   Config
	proto *core.Broker
	table *resv.Table
	log   *slog.Logger
	m     bbMetrics
	// audits is set when the policy reads who is asking, so every
	// reserve's onion is checked in full here before the policy reads
	// a name from it. It catches a corrupted onion, not a forged user:
	// the neighbour introduces the user's key (DESIGN.md §6.11).
	audits bool

	// inbound is the SLA regulating premium traffic from each peered
	// domain; peerCerts is each peer's certificate by its broker DN.
	// Both are derived from Config.Peers once, in New.
	inbound   map[string]*sla.SLA
	peerCerts map[identity.DN]*pki.Certificate

	// pool holds the outbound signalling clients, one multiplexed
	// connection per peer, with its own per-slot locking — never
	// acquired under b.mu.
	pool *clientPool

	// mu guards the breaker map and nothing else.
	mu       sync.Mutex
	breakers map[identity.DN]*breaker

	// routes holds one entry per route key this hop has seen a reserve
	// under: in flight, or settled with its replayable outcome.
	routes *registry[route]
	// tunnels holds the tunnel registrations ending here, each with the
	// replay cache of its batches.
	tunnels *registry[tunnelReg]
	// epoch mints a unique epoch per registration (routes, tunnels) and
	// saga id; journal records carry it so replay can tell
	// re-registrations of a reused RAR id apart.
	epoch atomic.Int64

	// journal is the broker's write-ahead log (nil when Config.StateDir
	// is empty; every method on a nil journal no-ops). ckptMu coalesces
	// concurrent checkpoint triggers.
	journal *journal.Journal
	ckptMu  sync.Mutex

	// replay rebuilds durable state from a journal, at boot and on a
	// replication follower (nil on a memory-only broker).
	replay *replayer
	// repl is the replication engine (nil when the broker runs
	// unreplicated — every caller checks).
	repl *replicator

	// sagas is the two-phase compensation layer: split reservations and
	// downstream rollback cancels register compensations here, and the
	// coordinator retries them persistently (journal-backed, so they
	// resume across crash recovery). Never nil.
	sagas *saga.Coordinator

	// recorder is the flight recorder opened from Config.EventsDir (nil
	// when it is empty; every append on a nil recorder no-ops). sampler
	// makes its ingress sampling decisions (nil when SampleRate is 0:
	// only forced events are recorded).
	recorder *obs.Recorder
	sampler  *obs.Sampler
}

// New assembles a broker from the config.
func New(cfg Config) (*BB, error) {
	if cfg.Domain == "" {
		return nil, fmt.Errorf("bb: missing domain")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("bb: missing policy server")
	}
	if cfg.Topo == nil {
		return nil, fmt.Errorf("bb: missing topology")
	}
	if len(cfg.ReplicaAddrs) > 1 {
		if cfg.StateDir == "" {
			return nil, fmt.Errorf("bb %s: replication requires a state directory (the stream is the journal)", cfg.Domain)
		}
		if _, ok := cfg.ReplicaAddrs[cfg.ReplicaID]; !ok {
			return nil, fmt.Errorf("bb %s: the replica addresses leave out this broker's own replica id %d", cfg.Domain, cfg.ReplicaID)
		}
	}
	proto, err := core.NewBroker(cfg.Key, cfg.Cert, cfg.Trust)
	if err != nil {
		return nil, err
	}
	// The brokers an onion names are the topology's: their DNs decode
	// as the topology's strings, and only a user's DN is copied.
	brokers := []identity.DN{cfg.Key.DN}
	for _, name := range cfg.Topo.Domains() {
		if d, _ := cfg.Topo.Domain(name); d.BBDN != "" {
			brokers = append(brokers, d.BBDN)
		}
	}
	proto.DNs = envelope.NewDNTable(brokers)
	table, err := resv.NewTable("net-"+cfg.Domain, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	// The table shares the broker's clock so compaction horizons follow
	// simulated time in the experiments.
	table.SetClock(cfg.Clock)
	b := &BB{
		cfg:       cfg,
		proto:     proto,
		table:     table,
		audits:    cfg.Policy.NamesRequester(),
		log:       obs.BrokerLogger(cfg.Logger, cfg.Domain),
		m:         newBBMetrics(cfg.Metrics),
		inbound:   make(map[string]*sla.SLA, len(cfg.Peers)),
		peerCerts: make(map[identity.DN]*pki.Certificate, len(cfg.Peers)),
		breakers:  make(map[identity.DN]*breaker),
		routes:    newRegistry[route](),
		tunnels:   newRegistry[tunnelReg](),
		sampler:   obs.NewSampler(cfg.SampleRate),
	}
	for _, p := range cfg.Peers {
		if p.Domain == cfg.Domain {
			return nil, fmt.Errorf("bb %s: peer %s is this broker's own domain", cfg.Domain, p.Domain)
		}
		if p.SLARate <= 0 {
			return nil, fmt.Errorf("bb %s: peer %s: SLA rate %v is not positive", cfg.Domain, p.Domain, p.SLARate)
		}
		dn := p.Cert.SubjectDN()
		if d, ok := cfg.Topo.Domain(p.Domain); !ok || d.BBDN != dn {
			return nil, fmt.Errorf("bb %s: peer %s: certificate subject %s is not the topology's broker for that domain", cfg.Domain, p.Domain, dn)
		}
		cfg.Trust.PinPeer(dn, p.Cert.PublicKey())
		b.peerCerts[dn] = p.Cert
		// The premium SLS every peering contracts.
		b.inbound[p.Domain] = &sla.SLA{
			Upstream:   p.Domain,
			Downstream: cfg.Domain,
			Service:    sla.SLS{Profile: sla.TrafficProfile{Rate: p.SLARate, BucketBytes: 64_000}},
		}
	}
	b.pool = newClientPool(func(dn identity.DN) (*signalling.Client, error) {
		return b.dial("peer "+string(dn), b.cfg.PeerAddrs[dn], dn)
	}, func() { b.m.clientEvictions.Inc() })
	// The saga coordinator exists before the journal opens: recovery
	// replays "saga." records into it, and compensation only starts
	// once Resume runs below.
	b.sagas = b.newSagaCoordinator()
	if cfg.StateDir != "" {
		// Recover-on-boot: replay the snapshot + record tail persisted by
		// a previous incarnation into the fresh table, then start
		// journaling new mutations.
		b.replay = newReplayer(b)
		if err := b.openJournal(); err != nil {
			return nil, err
		}
		b.sagas.AttachJournal(b.journal)
	}
	if cfg.EventsDir != "" {
		// The last step that can fail: only the journal is open to undo.
		if b.recorder, err = obs.OpenRecorder(cfg.EventsDir); err != nil {
			b.journal.Close()
			return nil, fmt.Errorf("bb %s: flight recorder: %w", cfg.Domain, err)
		}
	}
	if b.replicated() {
		b.repl = newReplicator(b)
	}
	if b.repl == nil || !cfg.StartAsFollower {
		// Presumed abort: sagas still open after recovery (a committed
		// one closed with its end record) restart their compensations.
		// Followers only mirror saga state; the leader (or a promoted
		// follower) runs the compensations.
		if n := b.sagas.Resume(); n > 0 {
			b.log.Info("saga: resumed compensation after recovery", "sagas", n)
		}
	}
	b.registerGauges(cfg.Metrics)
	return b, nil
}

// replicated reports whether this broker is a member of a replica
// group (two or more configured replicas).
func (b *BB) replicated() bool {
	return len(b.cfg.ReplicaAddrs) > 1
}

// Logger exposes the broker's structured logger (never nil); the
// signalling server and daemon share it so records carry the domain.
func (b *BB) Logger() *slog.Logger { return b.log }

// MetricsRegistry exposes the broker's metric registry (nil when
// observability is disabled); the daemon's admin endpoint serves it.
func (b *BB) MetricsRegistry() *obs.Registry { return b.cfg.Metrics }

// DN returns the broker's identity.
func (b *BB) DN() identity.DN { return b.cfg.Key.DN }

// Domain returns the administrative domain.
func (b *BB) Domain() string { return b.cfg.Domain }

// Table exposes the reservation table (read-mostly: experiments and
// status tooling).
func (b *BB) Table() *resv.Table { return b.table }

// dial opens a signalling client to addr ("" when none is configured)
// and refuses it unless the far end authenticated as want. who names
// the far end in errors: a peer broker (the pool owns those clients) or
// a replica of this one (same DN).
func (b *BB) dial(who, addr string, want identity.DN) (*signalling.Client, error) {
	switch {
	case addr == "":
		return nil, fmt.Errorf("bb %s: no address for %s", b.cfg.Domain, who)
	case b.cfg.Dialer == nil:
		return nil, fmt.Errorf("bb %s: no dialer configured", b.cfg.Domain)
	}
	c, err := signalling.Dial(b.cfg.Dialer, addr)
	if err != nil {
		return nil, fmt.Errorf("bb %s: dialing %s: %w", b.cfg.Domain, who, err)
	}
	if got := c.PeerDN(); got != want {
		c.Close()
		return nil, fmt.Errorf("bb %s: %s at %s authenticated as %s, not %s", b.cfg.Domain, who, addr, got, want)
	}
	return c, nil
}

// mintEpoch stamps a new registration or saga id.
func (b *BB) mintEpoch() int64 { return b.epoch.Add(1) }

// noteEpoch keeps the epoch counter at or above every epoch a record or
// snapshot carries, so a recovered or promoted broker never mints one
// again.
func (b *BB) noteEpoch(epoch int64) {
	for cur := b.epoch.Load(); cur < epoch && !b.epoch.CompareAndSwap(cur, epoch); cur = b.epoch.Load() {
	}
}

// clientFor returns a pooled signalling client to the given peer
// broker, redialing transparently when the cached one has died.
func (b *BB) clientFor(dn identity.DN) (*signalling.Client, error) {
	return b.pool.get(dn)
}

// Close tears down all outbound clients and, when the broker is
// durable, flushes and closes its journal — the graceful shutdown. The
// flight recorder closes last of all, once nothing is left to append.
func (b *BB) Close() {
	b.sagas.Close()
	b.repl.close()
	b.pool.closeAll()
	if err := b.journal.Close(); err != nil {
		b.log.Error("journal: close failed", "err", err)
	}
	if err := b.recorder.Close(); err != nil {
		b.log.Error("flight recorder: close failed", "err", err)
	}
}

// Crash tears the broker down the way a dying process would: outbound
// clients drop and the journal is abandoned without a flush, so
// records still in the fsync batch buffer are lost. Crash-recovery
// tests and the experiment World use it; production code wants Close.
func (b *BB) Crash() {
	b.sagas.Close()
	b.repl.close()
	b.pool.closeAll()
	b.journal.Crash()
	// Event writes are unbuffered: the recorder loses nothing, and the
	// next incarnation resumes its newest segment.
	b.recorder.Close()
}

// syncDataPlane pushes the currently committed aggregate into the
// domain's ingress policer.
func (b *BB) syncDataPlane() {
	p := b.cfg.Plane
	if p == nil {
		return
	}
	rate := b.table.CommittedAt(b.cfg.Clock())
	if rate <= 0 {
		// A closed policer: nothing admitted, no premium passes.
		rate = 1 // 1 b/s effectively blocks premium traffic
	}
	p.SetAggregate(sla.TrafficProfile{Rate: rate, BucketBytes: bucketBytes})
}

// installEdgeFlow programs the source-domain edge marker for a granted
// flow.
func (b *BB) installEdgeFlow(spec *core.Spec) {
	p := b.cfg.Plane
	if p == nil {
		return
	}
	p.InstallProfile(spec.RARID, sla.TrafficProfile{
		Rate:        spec.Bandwidth,
		BucketBytes: bucketBytes,
	})
}

// removeEdgeFlow deprograms a cancelled flow.
func (b *BB) removeEdgeFlow(rarID string) {
	p := b.cfg.Plane
	if p == nil {
		return
	}
	p.RemoveProfile(rarID)
}

// signRefusal builds this domain's signed refusal of a RAR.
func (b *BB) signRefusal(rarID, reason string) (signalling.DomainApproval, error) {
	a := signalling.DomainApproval{
		Domain: b.cfg.Domain,
		BBDN:   b.cfg.Key.DN,
		RARID:  rarID,
		Reason: reason,
	}
	if err := signalling.SignApproval(&a, b.cfg.Key); err != nil {
		return signalling.DomainApproval{}, err
	}
	b.m.signatures.Inc()
	return a, nil
}
