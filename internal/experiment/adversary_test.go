package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
	"e2eqos/internal/policy"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// TestDestinationRefusesCapabilityHeldByAnother: a source broker that
// forwards a user's capability re-delegated to some broker other than
// the destination hands the destination a chain that verifies against
// the CAS and satisfies its policy, but is not the destination's to
// use. The destination refuses it when it verifies the RAR, before
// policy or admission.
func TestDestinationRefusesCapabilityHeldByAnother(t *testing.T) {
	w, err := BuildWorld(WorldConfig{
		NumDomains: 2,
		Labels:     []string{"DomainA", "DomainB"},
		Policies: map[string]*policy.Policy{
			"DomainB": policy.MustParse("needs-capability", "allow if capability from \"ESnet\" and bw <= 10Mb/s\ndeny"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	src, dst := w.SourceDomain(), w.DestDomain()
	alice, err := w.NewUser("Alice", src, []string{"network-reservation"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	spec := alice.NewSpec(SpecOptions{DestDomain: dst, Bandwidth: 5 * units.Mbps})
	rarU, err := alice.buildRARFor(spec, src)
	if err != nil {
		t.Fatal(err)
	}

	// The source broker's layer, written by hand: everything Extend
	// writes, but the capability goes to a DN that is not the next hop.
	bbA := w.members[src][0].cfg
	caps := userCapabilities(t, rarU, alice.Agent.Key.Public())
	other, err := identity.GenerateKeyPair(identity.NewDN("Grid", "DomainX", "bb"))
	if err != nil {
		t.Fatal(err)
	}
	delegated, err := pki.Delegate(caps[len(caps)-1], bbA.Key.DN, bbA.Key.Private, other.DN, other.Public(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rarA, err := envelope.Seal(bbA.Key, envelope.Body{
		Inner:           rarU,
		UpstreamCertDER: alice.Agent.Cert.DER,
		NextHopDN:       w.BBCerts[dst].SubjectDN(),
		CapabilityDERs:  [][]byte{delegated.DER},
		Claim:           []byte("DomainA-forwarded"),
	})
	if err != nil {
		t.Fatal(err)
	}

	c, err := signalling.Dial(w.Net.NewEndpoint(bbA.Key.DN, bbA.Cert.DER), w.BBAddr(dst))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, rarA)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res := resp.Result; res == nil || res.Granted || !strings.Contains(res.Reason, "not delegated to this broker") {
		t.Fatalf("destination answered %+v, want a refusal naming the capability holder", res)
	}
	if got := w.BBs[dst].Table().CommittedAt(spec.Window.Start); got != 0 {
		t.Errorf("destination committed %v for a refused request", got)
	}
}

// TestDestinationRefusesCapabilityScopedToAnotherRAR: a forwarding
// broker that holds a capability chain delegated for one RAR — whose
// user delegation carries "valid-for-rar:<that RAR>" — re-delegates it
// to the destination under another RAR of the same user. Every
// signature in the chain holds and it ends at the destination, but the
// policy server verifies the chain against the RAR it arrived with, so
// the capability does not count: the destination's capability-only
// policy refuses the RAR and no table admits it. The same chain under
// its own RAR is granted.
func TestDestinationRefusesCapabilityScopedToAnotherRAR(t *testing.T) {
	w, err := BuildWorld(WorldConfig{
		NumDomains: 2,
		Labels:     []string{"DomainA", "DomainB"},
		Policies: map[string]*policy.Policy{
			"DomainB": policy.MustParse("needs-capability", "allow if capability from \"ESnet\" and bw <= 10Mb/s\ndeny"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	src, dst := w.SourceDomain(), w.DestDomain()
	alice, err := w.NewUser("Alice", src, []string{"network-reservation"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bbA := w.members[src][0].cfg
	dstDN := w.BBCerts[dst].SubjectDN()

	// RAR-17 as Alice sent it: her capability, delegated to the source
	// broker for RAR-17 alone.
	spec17 := alice.NewSpec(SpecOptions{DestDomain: dst, Bandwidth: 5 * units.Mbps})
	rar17, err := alice.buildRARFor(spec17, src)
	if err != nil {
		t.Fatal(err)
	}
	caps := userCapabilities(t, rar17, alice.Agent.Key.Public())
	if r := caps[len(caps)-1].Attrs.Restrictions; len(r) != 1 || r[0] != spec17.RestrictionFor() {
		t.Fatalf("Alice's delegation carries %v, want [%s]", r, spec17.RestrictionFor())
	}
	onward, err := pki.Delegate(caps[len(caps)-1], bbA.Key.DN, bbA.Key.Private, dstDN, w.BBCerts[dst].PublicKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := [][]byte{caps[0].DER, caps[1].DER, onward.DER}

	// RAR-18: Alice's own request, carrying no capability; the source
	// broker attaches RAR-17's chain to it.
	spec18 := alice.NewSpec(SpecOptions{DestDomain: dst, Bandwidth: 5 * units.Mbps, Window: spec17.Window})
	rar18, err := envelope.Seal(alice.Agent.Key, envelope.Body{Request: spec18.AppendBinary(nil), NextHopDN: bbA.Key.DN})
	if err != nil {
		t.Fatal(err)
	}
	forward := func(inner *envelope.Envelope, capDERs [][]byte) *signalling.ResultPayload {
		t.Helper()
		outer, err := envelope.Seal(bbA.Key, envelope.Body{
			Inner:           inner,
			UpstreamCertDER: alice.Agent.Cert.DER,
			NextHopDN:       dstDN,
			CapabilityDERs:  capDERs,
			Claim:           []byte("DomainA-forwarded"), // the admission claim a forwarding broker writes
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := signalling.Dial(w.Net.NewEndpoint(bbA.Key.DN, bbA.Cert.DER), w.BBAddr(dst))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, outer)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Call(msg, 0)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Result
	}

	if res := forward(rar18, chain); res == nil || res.Granted || !strings.Contains(res.Reason, "policy denied") {
		t.Fatalf("destination answered %+v, want a policy refusal: the chain is RAR-17's", res)
	}
	for _, d := range w.Domains {
		if got := w.BBs[d].Table().CommittedAt(spec18.Window.Start); got != 0 {
			t.Errorf("%s committed %v for a refused request", d, got)
		}
	}
	// The control: the chain under the RAR it was delegated for.
	if res := forward(rar17, [][]byte{onward.DER}); res == nil || !res.Granted {
		t.Fatalf("RAR-17 with its own chain: %+v, want a grant", res)
	}
}

// TestDestinationRefusesReusedSeqFromBroker: a peer holding the source
// broker's real key sends a tunnel's destination two batches under one
// Seq with different ops. Brokers mint each Seq once (DESIGN.md §6.5),
// so only a faulty or malicious sender does this; the destination
// applies the first, refuses the second as a reused Seq without applying
// it, and counts it.
func TestDestinationRefusesReusedSeqFromBroker(t *testing.T) {
	w, err := BuildWorld(WorldConfig{NumDomains: 2, Capacity: 1000 * units.Mbps, EnableObs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	src, dst := w.SourceDomain(), w.DestDomain()
	alice, err := w.NewUser("Alice", src, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	spec := alice.NewSpec(SpecOptions{DestDomain: dst, Bandwidth: 100 * units.Mbps, Tunnel: true})
	if res, err := alice.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("tunnel establishment: res=%+v err=%v", res, err)
	}
	bbA := w.members[src][0].cfg
	c, err := signalling.Dial(w.Net.NewEndpoint(bbA.Key.DN, bbA.Cert.DER), w.BBAddr(dst))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send := func(id string) *signalling.ResultPayload {
		t.Helper()
		resp, err := c.Call(&signalling.Message{Type: signalling.MsgTunnelBatch, TunnelBatch: &signalling.TunnelBatchPayload{
			TunnelRARID: spec.RARID, Seq: 7, User: alice.DN(),
			Ops: []signalling.TunnelOp{{Action: signalling.OpAlloc, SubFlowID: id, Bandwidth: int64(10 * units.Mbps)}},
		}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Result
	}
	if res := send("f1"); !res.Granted {
		t.Fatalf("first batch: %+v", res)
	}
	if res := send("f2"); res.Granted || !strings.Contains(res.Reason, "seq reused") {
		t.Fatalf("second batch under the same seq: %+v, want a seq reused refusal", res)
	}
	ep, _ := w.BBs[dst].Tunnel(spec.RARID)
	if ep.Len() != 1 || ep.Used() != 10*units.Mbps {
		t.Errorf("destination holds %d sub-flows, %v: want only the first batch's", ep.Len(), ep.Used())
	}
	if n := w.BBs[dst].MetricsRegistry().Snapshot()["bb_tunnel_batches_stale_total"]; n != 1 {
		t.Errorf("bb_tunnel_batches_stale_total = %v, want the reused seq counted once", n)
	}
}

// TestTransitBrokerInflatesDownstreamApproval: a transit broker holding
// its real key turns the destination's signed refusal into a grant in
// the answer it returns upstream. Domain2, the destination, has 5 Mb/s
// and refuses Alice's 10 Mb/s. Domain1 answers Domain0 with a grant: it
// flips the granted flag of Domain2's refusal, which makes it read as
// the grant's statement, and turns its own signed refusal into an
// unsigned claim with a handle of its choosing. It cannot sign a claim
// of its own: no hop signs a grant but the destination. Domain0 adopts
// the grant without checking it (bb's stackOf), admits Alice and grants
// her a reservation no bandwidth backs in Domain1 or Domain2. The
// user-side check, World.VerifyApprovals, is what refuses it: Domain2's
// signature covers a refusal, not a statement over these claims, and
// the refusal names Domain2. DESIGN.md §6.11 records the gap: no broker
// verifies the statement it adopts.
func TestTransitBrokerInflatesDownstreamApproval(t *testing.T) {
	forge := func(m *signalling.Message) error {
		r := m.Result
		if r == nil || r.Granted {
			return nil
		}
		if err := r.DecodeApprovals(); err != nil {
			return err
		}
		for i := range r.Approvals {
			a := &r.Approvals[i]
			switch a.Domain {
			case "Domain2":
				a.Granted, a.Reason = true, ""
			case "Domain1":
				*a = signalling.DomainApproval{Domain: a.Domain, BBDN: a.BBDN, Handle: "forged", Granted: true}
			}
		}
		r.Granted, r.Reason, r.Handle = true, "", "forged"
		return nil
	}
	w, err := BuildWorld(WorldConfig{
		NumDomains: 3,
		Capacity:   100 * units.Mbps,
		Capacities: map[string]units.Bandwidth{"Domain2": 5 * units.Mbps},
		WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
			if domain != "Domain0" {
				return d
			}
			return forgingDialer{d, forge}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	alice, err := w.NewUser("Alice", "Domain0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	spec := alice.NewSpec(SpecOptions{DestDomain: "Domain2", Bandwidth: 10 * units.Mbps})
	res, err := alice.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}

	// What Domain0 does today: it takes Domain1's word.
	if !res.Granted {
		t.Fatalf("Domain0 answered %+v; it adopts downstream approvals unchecked and should have granted", res)
	}
	at := spec.Window.Start
	if got := w.BBs["Domain0"].Table().CommittedAt(at); got != spec.Bandwidth {
		t.Errorf("Domain0 committed %v, want the %v it granted", got, spec.Bandwidth)
	}
	for _, d := range []string{"Domain1", "Domain2"} {
		if got := w.BBs[d].Table().CommittedAt(at); got != 0 {
			t.Errorf("%s committed %v; the forged grant should be backed by nothing there", d, got)
		}
	}
	// What the user's check does: refuse the forged statement by name.
	err = w.VerifyApprovals(res)
	if err == nil || !strings.Contains(err.Error(), "Domain2") {
		t.Fatalf("VerifyApprovals = %v, want a refusal naming Domain2", err)
	}
}

// TestTransitBrokerReplaysCancelledRAR: after a 3-domain grant and its
// cancel, the transit broker Domain1, holding its real key, re-extends
// the envelope Domain0 sent it and sends it to Domain2 again. Nothing
// refuses it: the cancel removed Domain2's route entry for the RAR, so
// it is no retransmission, and core.Broker.MaxRequestAge, the replay
// window, is unarmed. Domain2 grants and holds the bandwidth for a
// reservation no upstream domain holds, and the user never learns of
// it. DESIGN.md §6.11 records the gap, beside the inflated approval
// above.
func TestTransitBrokerReplaysCancelledRAR(t *testing.T) {
	var (
		mu    sync.Mutex
		frame []byte // the reserve Domain0 sent Domain1
	)
	w, err := BuildWorld(WorldConfig{
		NumDomains: 3,
		Capacity:   100 * units.Mbps,
		WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
			if domain != "Domain0" {
				return d
			}
			return recordingDialer{Dialer: d, sent: func(sent []byte) {
				if m, err := signalling.DecodeMessage(sent); err == nil && m.Type == signalling.MsgReserve {
					mu.Lock()
					frame = bytes.Clone(sent)
					mu.Unlock()
				}
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	alice, err := w.NewUser("Alice", "Domain0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	spec := alice.NewSpec(SpecOptions{DestDomain: "Domain2", Bandwidth: 10 * units.Mbps})
	if res, err := alice.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("reserve: res=%+v err=%v", res, err)
	}
	if err := alice.Cancel("Domain0", spec.RARID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	at := spec.Window.Start
	for _, d := range w.Domains {
		if got := w.BBs[d].Table().CommittedAt(at); got != 0 {
			t.Fatalf("%s holds %v after the cancel", d, got)
		}
	}

	// Domain1 re-extends what it was sent, as it did for the grant.
	mu.Lock()
	sent := frame
	mu.Unlock()
	m, err := signalling.DecodeMessage(sent)
	if err != nil {
		t.Fatal(err)
	}
	env, err := m.Reserve.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	bb1 := w.members["Domain1"][0].cfg
	proto, err := core.NewBroker(bb1.Key, bb1.Cert, bb1.Trust)
	if err != nil {
		t.Fatal(err)
	}
	upstream := w.BBCerts["Domain0"]
	verified, err := proto.Verify(env, upstream.SubjectDN(), upstream.DER, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	// It writes an admission claim into its layer, as it did for the
	// grant: the destination refuses a broker layer without one.
	extended, err := proto.Extend(env, upstream.DER, verified, w.BBCerts["Domain2"], &core.Additions{Claim: "Domain1-replayed"})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, extended)
	if err != nil {
		t.Fatal(err)
	}
	c, err := signalling.Dial(w.Net.NewEndpoint(bb1.Key.DN, bb1.Cert.DER), w.BBAddr("Domain2"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(replay, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// What Domain2 does today: it grants the replay and holds the
	// bandwidth, alone on the path.
	if !resp.Result.Granted {
		t.Fatalf("Domain2 answered the replay %+v; with no route entry and no replay window it should have granted", resp.Result)
	}
	if got := w.BBs["Domain2"].Table().CommittedAt(at); got != spec.Bandwidth {
		t.Errorf("Domain2 holds %v after the replay, want the %v it granted", got, spec.Bandwidth)
	}
	for _, d := range []string{"Domain0", "Domain1"} {
		if got := w.BBs[d].Table().CommittedAt(at); got != 0 {
			t.Errorf("%s holds %v; nothing upstream of Domain2 should back the replay", d, got)
		}
	}
}

// TestDestinationRefusesLayerForgedUpstream: on a 4-domain chain,
// Domain1 flips one byte of the user layer's signature in the onion it
// forwards and re-seals its own layer with its real key. The byte sits
// inside Domain0's signed payload, so Domain0's layer is the one that
// no longer verifies. Domain2, a transit hop under the default policy,
// checks only the layer Domain1 signed, which holds, admits and passes
// the request on (DESIGN.md §6.11). Domain3, the destination, audits
// the whole onion and refuses it, naming Domain0's layer, and every
// admission upstream is withdrawn. With a policy that names the user on
// Domain2, Domain2 audits the onion itself and refuses it first, as
// every hop did before transit hops vouched.
func TestDestinationRefusesLayerForgedUpstream(t *testing.T) {
	for _, namesUser := range []bool{false, true} {
		var bb1 *identity.KeyPair
		tamper := func(frame []byte) ([]byte, error) {
			m, err := signalling.DecodeMessage(frame)
			if err != nil || m.Type != signalling.MsgReserve {
				return frame, nil
			}
			env, err := m.Reserve.Envelope()
			if err != nil {
				return nil, err
			}
			var chain envelope.Chain
			if err := chain.Open(env, nil, introducedKeys{bb1.Public()}, nil); err != nil {
				return nil, err
			}
			userSig := chain.Layers[len(chain.Layers)-1].Env.Signature
			payload := bytes.Clone(env.Payload)
			payload[bytes.Index(payload, userSig)] ^= 1
			sig, err := bb1.Sign(payload)
			if err != nil {
				return nil, err
			}
			out := m.Reserve.Forward(&envelope.Envelope{SignerDN: bb1.DN, Payload: payload, Signature: sig})
			out.ID = m.ID
			return out.AppendBinary(nil), nil
		}
		cfg := WorldConfig{
			NumDomains: 4,
			EnableObs:  true,
			WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
				if domain != "Domain1" {
					return d
				}
				return tamperingDialer{d, tamper}
			},
		}
		if namesUser {
			cfg.Policies = map[string]*policy.Policy{"Domain2": policy.MustParse("alice-only",
				fmt.Sprintf("allow if user = %q and bw <= avail\ndeny", identity.NewDN("Grid", "Domain0", "Alice")))}
		}
		w, err := BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		bb1 = w.members["Domain1"][0].cfg.Key
		alice, err := w.NewUser("Alice", "Domain0", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer alice.Close()
		spec := alice.NewSpec(SpecOptions{DestDomain: "Domain3", Bandwidth: 10 * units.Mbps})
		res, err := alice.ReserveE2E(spec)
		if err != nil {
			t.Fatal(err)
		}

		// The refusal names the layer that broke, counted from the outside
		// at the hop that refused: Domain0's is layer 2 at Domain3 and
		// layer 1 at Domain2.
		refuser, layer := "Domain3", 2
		if namesUser {
			refuser, layer = "Domain2", 1
		}
		want := fmt.Sprintf("layer %d: envelope: layer signed by %s", layer, w.BBCerts["Domain0"].SubjectDN())
		if res.Granted || !strings.Contains(res.Reason, want) {
			t.Fatalf("names user %v: answered %+v, want a refusal containing %q", namesUser, res, want)
		}
		at := spec.Window.Start
		for _, d := range w.Domains {
			if got := w.BBs[d].Table().CommittedAt(at); got != 0 {
				t.Errorf("names user %v: %s holds %v after the refusal", namesUser, d, got)
			}
		}
		snap := w.MetricsSnapshot()
		if got := snap[refuser]["bb_layer_signatures_verified_total"]; got != 0 {
			t.Errorf("names user %v: %s accepted a chain (%.0f layer checks); it should have refused", namesUser, refuser, got)
		}
		if got := snap["Domain3"]["bb_rars_received_total"]; namesUser && got != 0 {
			t.Errorf("names user %v: Domain3 received %.0f reserves; Domain2 should have refused first", namesUser, got)
		}
		if got := snap["Domain2"]["bb_layers_vouched_total"]; !namesUser && got != 2 {
			t.Errorf("names user %v: Domain2 vouched for %.0f layers, want 2", namesUser, got)
		}
	}
}

// tamperingDialer hands out connections whose every sent frame passes
// through tamper first: what a broker holding its real key can send its
// neighbour.
type tamperingDialer struct {
	transport.Dialer
	tamper func([]byte) ([]byte, error)
}

func (d tamperingDialer) Dial(addr string) (transport.Conn, error) {
	c, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return tamperingConn{c, d.tamper}, nil
}

type tamperingConn struct {
	transport.Conn
	tamper func([]byte) ([]byte, error)
}

func (c tamperingConn) Send(frame []byte) error {
	frame, err := c.tamper(frame)
	if err != nil {
		return err
	}
	return c.Conn.Send(frame)
}

// introducedKeys is an envelope.KeyResolver for a chain whose outermost
// signer's key is known: every inner key is the one its wrapper's
// certificate introduces.
type introducedKeys struct{ outer identity.PublicKey }

func (k introducedKeys) ResolveKey(depth int, dn identity.DN, hint []byte) (identity.PublicKey, error) {
	if depth == 0 {
		return k.outer, nil
	}
	cert, err := pki.ParseCertificate(hint)
	if err != nil {
		return nil, err
	}
	return cert.PublicKey(), nil
}

// recordingDialer hands out connections that show sent every frame
// they send, and received every frame they receive; either may be nil.
type recordingDialer struct {
	transport.Dialer
	sent, received func([]byte)
}

func (d recordingDialer) Dial(addr string) (transport.Conn, error) {
	c, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return recordingConn{c, d}, nil
}

type recordingConn struct {
	transport.Conn
	d recordingDialer
}

func (c recordingConn) Send(frame []byte) error {
	if c.d.sent != nil {
		c.d.sent(frame)
	}
	return c.Conn.Send(frame)
}

func (c recordingConn) Recv() ([]byte, error) {
	frame, err := c.Conn.Recv()
	if err == nil && c.d.received != nil {
		c.d.received(frame)
	}
	return frame, err
}

// forgingDialer hands out connections whose answers pass through forge,
// which may rewrite a decoded message before the caller reads it: what a
// peer that holds its real key can send on the channel it authenticates.
type forgingDialer struct {
	transport.Dialer
	forge func(*signalling.Message) error
}

func (d forgingDialer) Dial(addr string) (transport.Conn, error) {
	c, err := d.Dialer.Dial(addr)
	if err != nil {
		return nil, err
	}
	return forgingConn{c, d.forge}, nil
}

type forgingConn struct {
	transport.Conn
	forge func(*signalling.Message) error
}

func (c forgingConn) Recv() ([]byte, error) {
	frame, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	m, err := signalling.DecodeMessage(frame)
	if err != nil {
		return frame, nil
	}
	if err := c.forge(m); err != nil {
		return nil, err
	}
	return m.AppendBinary(nil), nil
}

// signerKey is an envelope.KeyResolver that knows one key.
type signerKey struct{ pub identity.PublicKey }

func (k signerKey) ResolveKey(int, identity.DN, []byte) (identity.PublicKey, error) {
	return k.pub, nil
}

// userCapabilities verifies a user's one-layer RAR under the user's key
// and returns the capability chain it carries.
func userCapabilities(t *testing.T, rar *envelope.Envelope, user identity.PublicKey) pki.CapabilityChain {
	t.Helper()
	var chain envelope.Chain
	if err := chain.Open(rar, nil, signerKey{user}, nil); err != nil {
		t.Fatal(err)
	}
	caps, err := chain.Capabilities()
	if err != nil {
		t.Fatal(err)
	}
	return caps
}
