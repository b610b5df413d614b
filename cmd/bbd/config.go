package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/obs"
	"e2eqos/internal/pki"
	"e2eqos/internal/policy"
	"e2eqos/internal/policysrv"
	"e2eqos/internal/resv"
	"e2eqos/internal/topology"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// FileConfig is the JSON configuration of one bandwidth broker daemon.
type FileConfig struct {
	// Domain is the administrative domain this broker controls.
	Domain string `json:"domain"`
	// Listen is the TLS listen address, e.g. "127.0.0.1:7001".
	Listen string `json:"listen"`
	// KeyFile / CertFile are the broker's PEM identity.
	KeyFile  string `json:"key_file"`
	CertFile string `json:"cert_file"`
	// RootFiles are trusted CA certificates (the home CA at minimum,
	// so local users authenticate; peers are pinned, not CA-verified).
	RootFiles []string `json:"root_files"`
	// Capacity is the premium aggregate, e.g. "100Mb/s".
	Capacity string `json:"capacity"`
	// PolicyFile holds the domain policy in the internal/policy DSL;
	// PolicyText inlines it instead.
	PolicyFile string `json:"policy_file,omitempty"`
	PolicyText string `json:"policy_text,omitempty"`
	// IntroducerDepth bounds accepted trust chains (default
	// pki.DefaultIntroducerDepth).
	IntroducerDepth int `json:"introducer_depth,omitempty"`
	// Domains and Links describe the inter-domain topology.
	Domains []DomainConfig `json:"domains"`
	Links   []LinkConfig   `json:"links"`
	// Peers lists the SLA-peered brokers.
	Peers []PeerConfig `json:"peers"`
	// CPUs, when positive, co-manages a CPU pool of that size, which a
	// RAR links under "cpu".
	CPUs int `json:"cpus,omitempty"`

	// CallTimeout bounds every downstream signalling call, e.g. "2s"
	// (default "5s"; "0" waits forever).
	CallTimeout string `json:"call_timeout,omitempty"`
	// MaxRetries retries transport-failed downstream calls with
	// exponential backoff starting at RetryBackoff (e.g. "50ms").
	MaxRetries   int    `json:"max_retries,omitempty"`
	RetryBackoff string `json:"retry_backoff,omitempty"`
	// BreakerThreshold consecutive transport failures open the per-peer
	// circuit for BreakerCooldown (e.g. "5s"). Zero disables.
	BreakerThreshold int    `json:"breaker_threshold,omitempty"`
	BreakerCooldown  string `json:"breaker_cooldown,omitempty"`
	// MaxPaths enables multipath routing at this broker's ingress: up
	// to max_paths edge-disjoint domain paths are tried in cost order,
	// re-routing around dead peers, open breakers and mid-chain
	// denials. Zero or one keeps single-path routing.
	MaxPaths int `json:"max_paths,omitempty"`
	// SplitParts caps how many paths one reservation may be split
	// across when no single path has the capacity (requires
	// max_paths > 1; zero disables splitting).
	SplitParts int `json:"split_parts,omitempty"`

	// StateDir, when set, makes the broker durable: reservation and
	// RAR-cache mutations are journaled there and recovered on boot, so
	// a restart (or crash) no longer forgets granted reservations.
	// Default "" = memory-only.
	StateDir string `json:"state_dir,omitempty"`
	// FsyncPolicy selects when journal records reach stable storage:
	// "batch" (group-commit, the default), "always" (fsync per record)
	// or "never" (OS write-through only).
	FsyncPolicy string `json:"fsync_policy,omitempty"`

	// ReplicaID and ReplicaPeers turn the broker into one member of a
	// replicated group: ReplicaPeers maps every replica id (including
	// this broker's own) to its signalling address, all replicas share
	// the domain's key and certificate, and the leader streams its
	// journal to the followers. Requires state_dir. Empty peers =
	// unreplicated (the default).
	ReplicaID    int            `json:"replica_id,omitempty"`
	ReplicaPeers map[int]string `json:"replica_peers,omitempty"`
	// StartAsFollower boots this replica as a follower waiting for a
	// leader's stream instead of assuming leadership. Every replica
	// but one should set it.
	StartAsFollower bool `json:"start_as_follower,omitempty"`
	// ElectionTimeout, when set (e.g. "2s"), arms automatic failover:
	// a follower that hears no leader for this long (staggered by
	// replica id) stands for election. "" keeps failover manual:
	// POST /promote on the admin endpoint.
	ElectionTimeout string `json:"election_timeout,omitempty"`

	// AdminAddr, when set (e.g. "127.0.0.1:7101"), serves the broker's
	// admin HTTP endpoint: Prometheus metrics on /metrics, the metric
	// levels and quantiles `qosctl top` polls on /top, replica status
	// on /replication, POST /promote, and the pprof profiler under
	// /debug/pprof/. Default "" = disabled (metrics are still
	// collected; they are just not exposed).
	AdminAddr string `json:"admin_addr,omitempty"`
	// EventsDir, when set, turns on the flight recorder: sampled wide
	// events (plus every denial and downstream failure) are written as
	// binary records into a bounded ring of segment files in this
	// directory, readable with `qosctl events -dir <dir>`. Default "" =
	// disabled.
	EventsDir string `json:"events_dir,omitempty"`
	// SampleRate is the flight-recorder sampling probability for
	// requests entering the network at this broker (0 = record only
	// forced events, 1 = record everything). Only meaningful with
	// events_dir set.
	SampleRate float64 `json:"sample_rate,omitempty"`
	// LogLevel is the minimum structured-log severity: "debug", "info",
	// "warn" or "error". Default "" = "info".
	LogLevel string `json:"log_level,omitempty"`
	// LogFormat selects the stderr log encoding: "text" or "json".
	// Default "" = "text".
	LogFormat string `json:"log_format,omitempty"`
}

// DomainConfig mirrors topology.Domain.
type DomainConfig struct {
	Name string `json:"name"`
	BBDN string `json:"bb_dn"`
}

// LinkConfig is one peering link.
type LinkConfig struct {
	A    string `json:"a"`
	B    string `json:"b"`
	Cost int    `json:"cost,omitempty"`
}

// PeerConfig is one SLA-peered broker.
type PeerConfig struct {
	Domain   string `json:"domain"`
	Addr     string `json:"addr"`
	CertFile string `json:"cert_file"`
	// SLARate is the contracted aggregate entering from / leaving to
	// this peer (default: the broker capacity).
	SLARate string `json:"sla_rate,omitempty"`
}

// LoadConfig reads and validates a config file. A key the file names
// that no setting has is refused by name: a misspelt key would
// otherwise leave its setting at the default without a word.
func LoadConfig(path string) (*FileConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bbd: %w", err)
	}
	var cfg FileConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("bbd: parsing %s: %w", path, err)
	}
	if cfg.Domain == "" || cfg.Listen == "" || cfg.KeyFile == "" || cfg.CertFile == "" {
		return nil, fmt.Errorf("bbd: config must set domain, listen, key_file, cert_file")
	}
	if cfg.Capacity == "" {
		cfg.Capacity = "100Mb/s"
	}
	return &cfg, nil
}

// Build assembles the broker and its TLS listener.
func (cfg *FileConfig) Build() (*bb.BB, *transport.TLSListener, error) {
	cert, err := pki.LoadCertFile(cfg.CertFile)
	if err != nil {
		return nil, nil, err
	}
	key, err := pki.LoadKeyFile(cfg.KeyFile, cert.SubjectDN())
	if err != nil {
		return nil, nil, err
	}
	capacity, err := units.ParseBandwidth(cfg.Capacity)
	if err != nil {
		return nil, nil, err
	}

	depth := cfg.IntroducerDepth
	if depth <= 0 {
		depth = pki.DefaultIntroducerDepth
	}
	trust := pki.NewTrustStore(depth)
	var rootDERs [][]byte
	for _, path := range cfg.RootFiles {
		root, err := pki.LoadCertFile(path)
		if err != nil {
			return nil, nil, err
		}
		if err := trust.AddRoot(root); err != nil {
			return nil, nil, err
		}
		rootDERs = append(rootDERs, root.DER)
	}

	topo := topology.New()
	for _, d := range cfg.Domains {
		if err := topo.AddDomain(topology.Domain{Name: d.Name, BBDN: identity.DN(d.BBDN)}); err != nil {
			return nil, nil, err
		}
	}
	for _, l := range cfg.Links {
		if err := topo.AddLink(topology.Link{A: l.A, B: l.B, Cost: l.Cost}); err != nil {
			return nil, nil, err
		}
	}

	policyText := cfg.PolicyText
	if cfg.PolicyFile != "" {
		data, err := os.ReadFile(cfg.PolicyFile)
		if err != nil {
			return nil, nil, fmt.Errorf("bbd: %w", err)
		}
		policyText = string(data)
	}
	if policyText == "" {
		policyText = policy.DefaultText
	}
	pol, err := policy.Parse(cfg.Domain, policyText)
	if err != nil {
		return nil, nil, err
	}
	ps := policysrv.New(cfg.Domain, pol)

	peers := make([]bb.Peering, 0, len(cfg.Peers))
	peerAddrs := make(map[identity.DN]string)
	for _, p := range cfg.Peers {
		peerCert, err := pki.LoadCertFile(p.CertFile)
		if err != nil {
			return nil, nil, err
		}
		peerAddrs[peerCert.SubjectDN()] = p.Addr
		rate := capacity
		if p.SLARate != "" {
			if rate, err = units.ParseBandwidth(p.SLARate); err != nil {
				return nil, nil, err
			}
		}
		peers = append(peers, bb.Peering{Domain: p.Domain, Cert: peerCert, SLARate: rate})
	}

	tlsCfg := &transport.TLSConfig{CertDER: cert.DER, Key: key.Private, RootDERs: rootDERs}
	dialer := transport.NewTLSDialer(tlsCfg)

	parseDur := func(name, s string, def time.Duration) (time.Duration, error) {
		if s == "" {
			return def, nil
		}
		d, err := time.ParseDuration(s)
		if err != nil {
			return 0, fmt.Errorf("bbd: %s: %w", name, err)
		}
		return d, nil
	}
	callTimeout, err := parseDur("call_timeout", cfg.CallTimeout, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	// The same budget bounds connection establishment: a peer that
	// accepts TCP but never finishes the TLS handshake must not stall
	// the broker past the call deadline.
	dialer.Timeout = callTimeout
	retryBackoff, err := parseDur("retry_backoff", cfg.RetryBackoff, 0)
	if err != nil {
		return nil, nil, err
	}
	breakerCooldown, err := parseDur("breaker_cooldown", cfg.BreakerCooldown, 0)
	if err != nil {
		return nil, nil, err
	}
	electionTimeout, err := parseDur("election_timeout", cfg.ElectionTimeout, 0)
	if err != nil {
		return nil, nil, err
	}
	level, err := obs.ParseLevel(cfg.LogLevel)
	if err != nil {
		return nil, nil, fmt.Errorf("bbd: %w", err)
	}
	logger, err := obs.NewLogger(os.Stderr, level, cfg.LogFormat)
	if err != nil {
		return nil, nil, fmt.Errorf("bbd: %w", err)
	}
	metrics := obs.NewRegistry()
	dialer.Metrics = transport.NewMetrics(metrics)

	fsync, err := journal.ParsePolicy(cfg.FsyncPolicy)
	if err != nil {
		return nil, nil, fmt.Errorf("bbd: %w", err)
	}

	var pools map[string]*resv.Table
	if cfg.CPUs > 0 {
		cpus, err := resv.NewTable("cpu-"+cfg.Domain, units.Bandwidth(cfg.CPUs))
		if err != nil {
			return nil, nil, err
		}
		pools = map[string]*resv.Table{"cpu": cpus}
	}

	bbCfg := bb.Config{
		Domain:           cfg.Domain,
		Key:              key,
		Cert:             cert,
		Trust:            trust,
		Policy:           ps,
		Capacity:         capacity,
		Topo:             topo,
		Peers:            peers,
		PeerAddrs:        peerAddrs,
		Dialer:           dialer,
		Pools:            pools,
		CallTimeout:      callTimeout,
		MaxRetries:       cfg.MaxRetries,
		RetryBackoff:     retryBackoff,
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  breakerCooldown,
		MaxPaths:         cfg.MaxPaths,
		SplitParts:       cfg.SplitParts,
		Logger:           logger,
		Metrics:          metrics,
		StateDir:         cfg.StateDir,
		Fsync:            fsync,
		EventsDir:        cfg.EventsDir,
		SampleRate:       cfg.SampleRate,
		ReplicaID:        cfg.ReplicaID,
		ReplicaAddrs:     cfg.ReplicaPeers,
		StartAsFollower:  cfg.StartAsFollower,
		ElectionTimeout:  electionTimeout,
	}
	broker, err := bb.New(bbCfg)
	if err != nil {
		return nil, nil, err
	}
	ln, err := transport.ListenTLS(cfg.Listen, tlsCfg)
	if err != nil {
		broker.Close()
		return nil, nil, err
	}
	ln.Metrics = dialer.Metrics
	return broker, ln, nil
}
