package experiment

import (
	"fmt"
	"time"

	"e2eqos/internal/cas"
	"e2eqos/internal/core"
	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
	"e2eqos/internal/units"
)

// ChainSample captures one hop's view of a propagating RAR.
type ChainSample struct {
	Hop int
	// BrokerDomain names the observing broker.
	BrokerDomain string
	// CapabilityCerts is the capability-list length at this hop
	// (Figure 7: 2 at BB-A, 3 at BB-B, 4 at BB-C).
	CapabilityCerts int
	// WireBytes is the encoded RAR size arriving at this hop.
	WireBytes int
	// VerifyTime is the time this hop spent verifying the full chain.
	VerifyTime time.Duration
	// ExtendTime is the time spent re-signing and delegating onward.
	ExtendTime time.Duration
}

// ProtocolWorld is a pure-protocol fixture (no transport): a user plus
// a chain of core brokers with SLA-pinned neighbours, used by the
// Figure 7 / §6.4 measurements and the protocol benchmarks.
type ProtocolWorld struct {
	User    *core.UserAgent
	Brokers []*core.Broker
	Certs   []*pki.Certificate
	CAS     *cas.Server
}

// BuildProtocolWorld creates a user in the first of n domains, each
// domain with its own CA, neighbours pinned pairwise.
func BuildProtocolWorld(n int, withCapability bool) (*ProtocolWorld, error) {
	if n < 1 {
		return nil, fmt.Errorf("experiment: need at least one broker")
	}
	w := &ProtocolWorld{}
	casKey, err := identity.GenerateKeyPair(identity.NewDN("ESnet", "", "CAS"))
	if err != nil {
		return nil, err
	}
	w.CAS = cas.NewServer(casKey)

	keys := make([]*identity.KeyPair, n)
	for i := 0; i < n; i++ {
		dom := fmt.Sprintf("Domain%d", i)
		ca, err := pki.NewCA(identity.NewDN("Grid", dom, "CA"))
		if err != nil {
			return nil, err
		}
		key, err := identity.GenerateKeyPair(identity.NewDN("Grid", dom, "bb"))
		if err != nil {
			return nil, err
		}
		cert, err := ca.IssueIdentity(key.DN, key.Public(), 0, "bb")
		if err != nil {
			return nil, err
		}
		keys[i] = key
		w.Certs = append(w.Certs, cert)
		trust := pki.NewTrustStore(n + 2)
		broker, err := core.NewBroker(key, cert, trust)
		if err != nil {
			return nil, err
		}
		w.Brokers = append(w.Brokers, broker)
		if i == 0 {
			if err := trust.AddRoot(&pki.Certificate{Cert: ca.Certificate(), DER: ca.CertificateDER()}); err != nil {
				return nil, err
			}
			uk, err := identity.GenerateKeyPair(identity.NewDN("Grid", dom, "Alice"))
			if err != nil {
				return nil, err
			}
			ucert, err := ca.IssueIdentity(uk.DN, uk.Public(), 0)
			if err != nil {
				return nil, err
			}
			var cred *cas.Credential
			if withCapability {
				w.CAS.Grant(uk.DN, "network-reservation")
				cred, err = w.CAS.Login(uk.DN)
				if err != nil {
					return nil, err
				}
			}
			w.User, err = core.NewUserAgent(uk, ucert, cred)
			if err != nil {
				return nil, err
			}
		}
	}
	// Every broker knows the others' DNs, as a topology names them.
	dns := make([]identity.DN, n)
	for i, key := range keys {
		dns[i] = key.DN
	}
	table := envelope.NewDNTable(dns)
	for i := range w.Brokers {
		if i > 0 {
			w.Brokers[i].Trust.PinPeer(keys[i-1].DN, keys[i-1].Public())
		}
		if i+1 < n {
			w.Brokers[i].Trust.PinPeer(keys[i+1].DN, keys[i+1].Public())
		}
		w.Brokers[i].DNs = table
	}
	return w, nil
}

// NewSpec builds a protocol-level spec from the user's domain to the
// last broker's domain.
func (w *ProtocolWorld) NewSpec() *core.Spec {
	return &core.Spec{
		RARID:        core.NewRARID(),
		User:         w.User.Key.DN,
		SrcHost:      "host0.example",
		DstHost:      fmt.Sprintf("host%d.example", len(w.Brokers)-1),
		SourceDomain: "Domain0",
		DestDomain:   fmt.Sprintf("Domain%d", len(w.Brokers)-1),
		Bandwidth:    10 * units.Mbps,
		Window:       units.NewWindow(time.Now().Add(time.Minute), time.Hour),
	}
}

// Propagate walks a RAR through every broker, collecting per-hop
// samples. upstreamCert/peer bookkeeping mirrors the live signalling
// path exactly.
func (w *ProtocolWorld) Propagate(spec *core.Spec) ([]ChainSample, error) {
	env, err := w.User.BuildRAR(spec, w.Certs[0])
	if err != nil {
		return nil, err
	}
	samples := make([]ChainSample, 0, len(w.Brokers))
	peerDN := w.User.Key.DN
	peerCert := w.User.Cert.DER
	now := time.Now()
	for i, broker := range w.Brokers {
		wire := env.WireSize()
		start := time.Now()
		verified, err := broker.Verify(env, peerDN, peerCert, now)
		verifyTime := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("hop %d: %w", i, err)
		}
		sample := ChainSample{
			Hop:             i,
			BrokerDomain:    fmt.Sprintf("Domain%d", i),
			CapabilityCerts: len(verified.Capabilities),
			WireBytes:       wire,
			VerifyTime:      verifyTime,
		}
		if i+1 < len(w.Brokers) {
			start = time.Now()
			next, err := broker.Extend(env, peerCert, verified, w.Certs[i+1], &core.Additions{PolicyInfo: map[string]string{
				fmt.Sprintf("hop%d", i): "ok",
			}})
			sample.ExtendTime = time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("hop %d extend: %w", i, err)
			}
			peerDN = broker.DN()
			peerCert = w.Certs[i].DER
			env = next
		}
		samples = append(samples, sample)
	}
	return samples, nil
}

// RunFigure7 reproduces Figure 7: the capability-certificate list each
// broker receives, plus the message-size and verification-cost growth
// the nested-signature construction implies (§6.4).
func RunFigure7() (*Table, error) {
	const hops = 4
	w, err := BuildProtocolWorld(hops, true)
	if err != nil {
		return nil, err
	}
	samples, err := w.Propagate(w.NewSpec())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "fig7",
		Title: fmt.Sprintf("Capability delegation chain across %d brokers (Figure 7)", hops),
		Claim: "BB-A receives 2 capability certificates, BB-B 3, BB-C 4; each hop delegates with its own key",
		Columns: []string{
			"hop", "broker", "capability certs", "RAR wire bytes", "verify", "extend",
		},
	}
	for _, s := range samples {
		t.AddRow(
			fmt.Sprintf("%d", s.Hop),
			s.BrokerDomain,
			fmt.Sprintf("%d", s.CapabilityCerts),
			fmt.Sprintf("%d", s.WireBytes),
			fmt.Sprintf("%.2fms", float64(s.VerifyTime.Microseconds())/1000),
			fmt.Sprintf("%.2fms", float64(s.ExtendTime.Microseconds())/1000),
		)
	}
	t.Notes = append(t.Notes,
		"capability certs at hop i = i + 2 (CAS-issued + user delegation + one per prior broker), matching Figure 7",
		"wire size grows linearly with hops: each layer adds one signature, one certificate and the delegation",
	)
	return t, nil
}

// RunTrustChain reproduces the §6.4 transitive-trust measurements: the
// cost of nested-envelope verification as the path grows, and the
// effect of the introducer-depth policy.
func RunTrustChain() (*Table, error) {
	const maxHops = 8
	t := &Table{
		ID:    "trust",
		Title: "Transitive trust: verification cost and depth policy (§6.4)",
		Claim: "the destination can verify the full chain without a direct trust relationship with the source; local policy may limit the acceptable chain depth",
		Columns: []string{
			"path hops", "RAR wire bytes at dest", "dest verify time", "accepted at depth limit N-1", "accepted at depth limit N",
		},
	}
	for hops := 2; hops <= maxHops; hops++ {
		w, err := BuildProtocolWorld(hops, false)
		if err != nil {
			return nil, err
		}
		spec := w.NewSpec()
		samples, err := w.Propagate(spec)
		if err != nil {
			return nil, err
		}
		last := samples[len(samples)-1]

		// Depth policy: the destination's introducer depth is the
		// number of layers it accepts via introduction (= hops-1 for
		// the user+brokers chain arriving at the destination).
		need := hops - 1 // layers below the channel peer
		accepted := func(limit int) string {
			wv, err := BuildProtocolWorld(hops, false)
			if err != nil {
				return "err"
			}
			wv.Brokers[hops-1].Trust.SetMaxIntroducerDepth(limit)
			if _, err := wv.Propagate(wv.NewSpec()); err != nil {
				return "DENY"
			}
			return "ACCEPT"
		}
		t.AddRow(
			fmt.Sprintf("%d", hops),
			fmt.Sprintf("%d", last.WireBytes),
			fmt.Sprintf("%.2fms", float64(last.VerifyTime.Microseconds())/1000),
			accepted(need-1),
			accepted(need),
		)
	}
	t.Notes = append(t.Notes,
		"a depth limit below the path length rejects the chain; raising it to the path length accepts — the local-policy knob of §6.4",
	)
	return t, nil
}
