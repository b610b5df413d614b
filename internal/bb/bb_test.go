package bb_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/dsim"
	"e2eqos/internal/envelope"
	"e2eqos/internal/experiment"
	"e2eqos/internal/identity"
	"e2eqos/internal/netsim"
	"e2eqos/internal/pki"
	"e2eqos/internal/policy"
	"e2eqos/internal/policysrv"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/sla"
	"e2eqos/internal/topology"
	"e2eqos/internal/units"
)

// testWorld builds a small world and returns it with a trusted user.
func testWorld(t *testing.T, domains int) (*experiment.World, *experiment.User) {
	t.Helper()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:            domains,
		Capacity:              100 * units.Mbps,
		TrustUserCAEverywhere: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	return w, u
}

// rawPeer fabricates a signalling.Peer for direct Handle calls.
func rawPeer(u *experiment.User) signalling.Peer {
	return signalling.Peer{DN: u.DN(), CertDER: u.Agent.Cert.DER}
}

func TestHandleRejectsMalformedMessages(t *testing.T) {
	w, u := testWorld(t, 2)
	broker := w.BBs[w.SourceDomain()]
	peer := rawPeer(u)

	cases := []*signalling.Message{
		{Type: signalling.MsgReserve},           // missing payload
		{Type: signalling.MsgCancel},            // missing payload
		{Type: signalling.MsgTunnelBatch},       // missing payload
		{Type: "tunnel-alloc"},                  // retired type
		{Type: signalling.MsgStatus},            // missing payload
		{Type: signalling.MsgType("wire-fuzz")}, // unknown type
		{Type: signalling.MsgResult},            // results are not requests
	}
	for _, msg := range cases {
		resp := broker.Handle(peer, msg)
		if resp == nil || resp.Result == nil || resp.Result.Granted {
			t.Errorf("message %q: expected error result, got %+v", msg.Type, resp)
		}
	}
}

func TestHandleReserveGarbageEnvelope(t *testing.T) {
	w, u := testWorld(t, 2)
	broker := w.BBs[w.SourceDomain()]
	resp := broker.Handle(rawPeer(u), &signalling.Message{
		Type:    signalling.MsgReserve,
		Reserve: &signalling.ReservePayload{Mode: signalling.ModeLocal, EnvelopeData: json.RawMessage(`"not an envelope"`)},
	})
	if resp.Result.Granted {
		t.Fatal("garbage envelope accepted")
	}
}

func TestHandleReserveForgedSigner(t *testing.T) {
	// A request signed by the user but presented over a channel
	// claiming a different peer must be refused.
	w, u := testWorld(t, 2)
	broker := w.BBs[w.SourceDomain()]
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	rar, err := u.Agent.BuildRAR(spec, w.BBCerts[w.SourceDomain()])
	if err != nil {
		t.Fatal(err)
	}
	msg, err := signalling.NewReserveMessage(signalling.ModeLocal, rar)
	if err != nil {
		t.Fatal(err)
	}
	forged := signalling.Peer{DN: identity.NewDN("Grid", "X", "mallory"), CertDER: u.Agent.Cert.DER}
	resp := broker.Handle(forged, msg)
	if resp.Result.Granted {
		t.Fatal("envelope accepted from mismatched channel peer")
	}
}

func TestHandleReserveDuplicateRARID(t *testing.T) {
	w, u := testWorld(t, 2)
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("setup: %v %+v", err, res)
	}
	// The same RAR id again is treated as a retransmission: the
	// original grant is replayed, and crucially no second reservation
	// is admitted (a duplicate id must never double-book capacity).
	res2, err := u.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Granted {
		t.Fatalf("retransmitted RAR denied: %s", res2.Reason)
	}
	if res2.Handle != res.Handle {
		t.Errorf("replay handle = %q, want original %q", res2.Handle, res.Handle)
	}
	for _, dom := range w.Domains {
		n := 0
		for _, r := range w.BBs[dom].Table().All() {
			if r.Status == resv.Granted {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: %d granted reservations after replay, want 1", dom, n)
		}
	}
}

func TestHandleReserveReplayedEnvelopeAtWrongBroker(t *testing.T) {
	// A RAR addressed to the source broker replayed at the
	// destination broker must fail the path-naming check.
	w, u := testWorld(t, 3)
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	rar, err := u.Agent.BuildRAR(spec, w.BBCerts[w.SourceDomain()])
	if err != nil {
		t.Fatal(err)
	}
	msg, err := signalling.NewReserveMessage(signalling.ModeLocal, rar)
	if err != nil {
		t.Fatal(err)
	}
	dest := w.BBs[w.DestDomain()]
	resp := dest.Handle(rawPeer(u), msg)
	if resp.Result.Granted {
		t.Fatal("misaddressed RAR accepted by wrong broker")
	}
}

func TestStatusLifecycle(t *testing.T) {
	w, u := testWorld(t, 2)
	broker := w.BBs[w.SourceDomain()]
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 2 * units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("setup: %v %+v", err, res)
	}
	resp := broker.Handle(rawPeer(u), &signalling.Message{
		Type:   signalling.MsgStatus,
		Status: &signalling.StatusPayload{RARID: spec.RARID},
	})
	if !resp.Result.Granted {
		t.Fatalf("status failed: %+v", resp.Result)
	}
	if resp.Result.PolicyInfo["status"] != "granted" {
		t.Errorf("status info = %v", resp.Result.PolicyInfo)
	}
	if resp.Result.PolicyInfo["bandwidth"] != "2Mb/s" {
		t.Errorf("bandwidth info = %v", resp.Result.PolicyInfo)
	}
	// Unknown RAR.
	resp = broker.Handle(rawPeer(u), &signalling.Message{
		Type:   signalling.MsgStatus,
		Status: &signalling.StatusPayload{RARID: "RAR-nope"},
	})
	if resp.Result.Granted {
		t.Fatal("status of unknown RAR granted")
	}
}

// TestStatusOfDeniedAndInFlightRARs: a hop answers a status query on a
// RAR it refused, or saw refused below it, with the reason it recorded,
// and one on a RAR it is still deciding as in flight — not as a
// reservation whose (empty) handle vanished.
func TestStatusOfDeniedAndInFlightRARs(t *testing.T) {
	status := func(broker *bb.BB, u *experiment.User, rarID string) *signalling.ResultPayload {
		return broker.Handle(rawPeer(u), &signalling.Message{Type: signalling.MsgStatus, Status: &signalling.StatusPayload{RARID: rarID}}).Result
	}
	t.Run("denied", func(t *testing.T) {
		w, err := experiment.BuildWorld(experiment.WorldConfig{
			NumDomains: 2,
			Policies:   map[string]*policy.Policy{"Domain1": policy.MustParse("deny-all", "deny")},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		u, err := w.NewUser("alice", "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Close)
		spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
		res, err := u.ReserveE2E(spec)
		if err != nil || res.Granted || res.Reason == "" {
			t.Fatalf("reserve through a deny policy: res=%+v err=%v", res, err)
		}
		for _, d := range w.Domains {
			want := d + ": RAR " + spec.RARID + " denied: " + res.Reason
			if got := status(w.BBs[d], u, spec.RARID); got.Granted || got.Reason != want {
				t.Errorf("%s answers granted=%t %q, want a denial: %q", d, got.Granted, got.Reason, want)
			}
		}
	})
	t.Run("in flight", func(t *testing.T) {
		w, err := experiment.BuildWorld(experiment.WorldConfig{
			NumDomains:  2,
			CallTimeout: 300 * time.Millisecond,
			WrapDialer:  faultAt("Domain0", hang),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		u, err := w.NewUser("alice", "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(u.Close)
		spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
		done := make(chan *signalling.ResultPayload, 1)
		go func() {
			res, _ := u.ReserveE2E(spec)
			done <- res
		}()
		src := w.BBs[w.SourceDomain()]
		inFlight := w.SourceDomain() + ": RAR " + spec.RARID + " in flight"
		eventually(t, "the source answers the hanging RAR as in flight", func() bool {
			return status(src, u, spec.RARID).Reason == inFlight
		})
		res := <-done
		if res == nil || res.Granted {
			t.Fatalf("reserve through a hung hop: %+v", res)
		}
		if got := status(src, u, spec.RARID).Reason; !strings.HasSuffix(got, " denied: "+res.Reason) {
			t.Errorf("once settled the source answers %q, want its recorded denial %q", got, res.Reason)
		}
	})
}

func TestDenialCarriesSignedRefusals(t *testing.T) {
	w, u := testWorld(t, 3)
	// Exhaust the destination.
	fill := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 100 * units.Mbps})
	if res, err := u.ReserveLocalAt(w.DestDomain(), fill); err != nil || !res.Granted {
		t.Fatalf("setup: %v %+v", err, res)
	}
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	spec.Window = fill.Window
	res, err := u.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("grant into exhausted destination")
	}
	// The denial response carries approvals from the denying domain
	// and the upstream domains that rolled back.
	if len(res.Approvals) == 0 {
		t.Fatal("denial carries no signed refusals")
	}
	foundDenier := false
	for _, a := range res.Approvals {
		if a.Domain == w.DestDomain() && !a.Granted {
			foundDenier = true
			if err := signalling.VerifyApproval(&a, w.BBCerts[a.Domain].PublicKey()); err != nil {
				t.Errorf("refusal signature: %v", err)
			}
		}
	}
	if !foundDenier {
		t.Errorf("no signed refusal from the denying domain: %+v", res.Approvals)
	}
}

// testSeq numbers the batches tests send by hand: every one is fresh.
var testSeq atomic.Int64

// oneOp is a MsgTunnelBatch of one op, what a single allocation or
// release is on the wire.
func oneOp(rarID string, user identity.DN, op signalling.TunnelOp) *signalling.Message {
	return &signalling.Message{Type: signalling.MsgTunnelBatch, TunnelBatch: &signalling.TunnelBatchPayload{
		TunnelRARID: rarID, Seq: testSeq.Add(1), User: user, Ops: []signalling.TunnelOp{op},
	}}
}

func TestTunnelAllocViaUnknownTunnel(t *testing.T) {
	w, u := testWorld(t, 2)
	broker := w.BBs[w.SourceDomain()]
	resp := broker.Handle(rawPeer(u), oneOp("RAR-ghost", u.DN(), signalling.TunnelOp{Action: signalling.OpAlloc, SubFlowID: "s", Bandwidth: 1}))
	if resp.Result.Granted {
		t.Fatal("allocation on unknown tunnel granted")
	}
	resp = broker.Handle(rawPeer(u), oneOp("RAR-ghost", u.DN(), signalling.TunnelOp{Action: signalling.OpRelease, SubFlowID: "s"}))
	if resp.Result.Granted {
		t.Fatal("release on unknown tunnel granted")
	}
}

func TestTunnelOwnerMayAllocateDirectly(t *testing.T) {
	// The tunnel owner (the user) may drive allocations at the source
	// broker herself.
	w, u := testWorld(t, 3)
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 50 * units.Mbps, Tunnel: true})
	res, err := u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("setup: %v %+v", err, res)
	}
	broker := w.BBs[w.SourceDomain()]
	resp := broker.Handle(rawPeer(u), oneOp(spec.RARID, u.DN(),
		signalling.TunnelOp{Action: signalling.OpAlloc, SubFlowID: "owner-flow", Bandwidth: int64(10 * units.Mbps)}))
	if !resp.Result.Granted {
		t.Fatalf("owner allocation refused: %+v", resp.Result)
	}
}

func TestCancelUnknownAndForeignRAR(t *testing.T) {
	w, u := testWorld(t, 2)
	broker := w.BBs[w.SourceDomain()]
	resp := broker.Handle(rawPeer(u), &signalling.Message{
		Type:   signalling.MsgCancel,
		Cancel: &signalling.CancelPayload{RARID: "RAR-ghost"},
	})
	if resp.Result.Granted {
		t.Fatal("cancel of unknown RAR granted")
	}
}

func TestReserveExpiredWindowRejected(t *testing.T) {
	w, u := testWorld(t, 2)
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	spec.Window = units.Window{} // invalid
	if _, err := u.ReserveE2E(spec); err == nil {
		t.Fatal("invalid window not rejected client-side")
	}
	// Hand-build an envelope with a zero window to bypass client
	// validation — the spec must fail broker-side validation too.
	badSpec := *spec
	raw, err := json.Marshal(&badSpec)
	if err != nil {
		t.Fatal(err)
	}
	env, err := envelope.Seal(u.Agent.Key, envelope.Body{
		Request:   raw,
		NextHopDN: w.BBs[w.SourceDomain()].DN(),
	})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := signalling.NewReserveMessage(signalling.ModeLocal, env)
	if err != nil {
		t.Fatal(err)
	}
	resp := w.BBs[w.SourceDomain()].Handle(rawPeer(u), msg)
	if resp.Result.Granted {
		t.Fatal("broker accepted spec with invalid window")
	}
}

func TestClockSkewedCertificateRejected(t *testing.T) {
	// Verification at a time outside the user certificate's validity
	// must fail: brokers pass their clock into core.Verify.
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 2,
		Capacity:   100 * units.Mbps,
		Clock:      func() time.Time { return time.Now().Add(3 * 365 * 24 * time.Hour) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("reservation granted with expired user certificate")
	}
}

func TestTunnelFlowLifecycleDirectAPI(t *testing.T) {
	w, u := testWorld(t, 3)
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 30 * units.Mbps, Tunnel: true})
	res, err := u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("setup: %v %+v", err, res)
	}
	src := w.BBs[w.SourceDomain()]
	if err := src.AllocateTunnelFlow(spec.RARID, "f1", 10*units.Mbps, u.DN()); err != nil {
		t.Fatal(err)
	}
	ep, ok := src.Tunnel(spec.RARID)
	if !ok || ep.Used() != 10*units.Mbps {
		t.Fatalf("endpoint used = %v ok=%v", ep.Used(), ok)
	}
	if err := src.AllocateTunnelFlow("RAR-ghost", "f2", units.Mbps, u.DN()); err == nil {
		t.Error("allocation on unknown tunnel succeeded")
	}
	if err := src.ReleaseTunnelFlow(spec.RARID, "f1"); err != nil {
		t.Fatal(err)
	}
	if ep.Used() != 0 {
		t.Errorf("used after release = %v", ep.Used())
	}
	if err := src.ReleaseTunnelFlow(spec.RARID, "f1"); err == nil {
		t.Error("double release succeeded")
	}
	if err := src.ReleaseTunnelFlow("RAR-ghost", "f1"); err == nil {
		t.Error("release on unknown tunnel succeeded")
	}
}

// TestDiskLinkedReservationPolicy: a destination whose policy requires a
// co-reservation ("allow if has <pool>-reservation") counts a linked
// handle only if its pool is local, and the handle there is granted,
// Alice's, and covers the RAR's whole window. Each row, for the cpu and
// the disk pool alike, reserves through the live hop-by-hop path.
func TestDiskLinkedReservationPolicy(t *testing.T) {
	whole := func(w units.Window) units.Window { return w }
	firstSecond := func(w units.Window) units.Window { return units.NewWindow(w.Start, time.Second) }
	lastMinute := func(w units.Window) units.Window { return units.NewWindow(w.End.Add(-time.Minute), time.Minute) }
	bob := identity.NewDN("Grid", "Domain0", "bob")
	amount := map[string]units.Bandwidth{"cpu": 4, "disk": 50 * units.Mbps}
	for _, pool := range []string{"cpu", "disk"} {
		for _, c := range []struct {
			name      string
			foreign   bool // the handle is Bob's
			window    func(units.Window) units.Window
			cancelled bool
			poolAt    string // the one domain with the pool
			want      bool
		}{
			{"own handle over the window", false, whole, false, "Domain1", true},
			{"another user's handle", true, whole, false, "Domain1", false},
			{"covers only the first second", false, firstSecond, false, "Domain1", false},
			{"covers only the last minute", false, lastMinute, false, "Domain1", false},
			{"cancelled handle", false, whole, true, "Domain1", false},
			{"no such pool at the destination", false, whole, false, "Domain0", false},
		} {
			t.Run(pool+"/"+c.name, func(t *testing.T) {
				w, err := experiment.BuildWorld(experiment.WorldConfig{
					NumDomains: 2,
					Capacity:   100 * units.Mbps,
					Policies: map[string]*policy.Policy{
						"Domain1": policy.MustParse("d1", "allow if has "+pool+"-reservation\ndeny"),
					},
					Pools: map[string]map[string]units.Bandwidth{c.poolAt: {pool: 400 * units.Mbps}},
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(w.Close)
				u, err := w.NewUser("alice", "", nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(u.Close)

				spec := u.NewSpec(experiment.SpecOptions{DestDomain: "Domain1", Bandwidth: 10 * units.Mbps})
				holder := u.DN()
				if c.foreign {
					holder = bob
				}
				table := w.Pools[c.poolAt][pool]
				r, err := table.Admit(resv.AdmitRequest{User: holder, Bandwidth: amount[pool], Window: c.window(spec.Window)})
				if err != nil {
					t.Fatal(err)
				}
				if c.cancelled {
					if err := table.Cancel(r.Handle); err != nil {
						t.Fatal(err)
					}
				}
				spec.LinkedHandles = map[string]string{pool: r.Handle}
				res, err := u.ReserveE2E(spec)
				if err != nil {
					t.Fatal(err)
				}
				if res.Granted != c.want {
					t.Fatalf("granted = %v, want %v (%s)", res.Granted, c.want, res.Reason)
				}
				if !c.want && !strings.Contains(res.Reason, "Domain1: policy denied") {
					t.Errorf("denied for another reason: %s", res.Reason)
				}
			})
		}
	}
}

func TestDataPlaneSyncOnGrantAndCancel(t *testing.T) {
	w, u := testWorld(t, 2)
	// Attach a data plane to the source domain.
	sim := dsim.New()
	sink := netsim.NewSink(sim)
	policer := netsim.NewPolicer(sim, sla.TrafficProfile{Rate: 1, BucketBytes: 1}, sink)
	marker := netsim.NewEdgeMarker(sim, policer)
	w.Planes[w.SourceDomain()].AttachEdge(marker)
	w.Planes[w.SourceDomain()].AttachPolicer(policer)

	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	spec.Window.Start = time.Now().Add(-time.Minute) // active now
	res, err := u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("setup: %v %+v", err, res)
	}
	// The edge marker must now mark the flow premium.
	marker.Receive(&netsim.Packet{Flow: netsim.FlowID(spec.RARID), Size: 100})
	st := sink.Stats(netsim.FlowID(spec.RARID))
	if st == nil || st.RxBytesByCls[netsim.Premium] == 0 {
		t.Fatal("granted flow not marked premium by the configured edge")
	}
	// After cancel the same packet rides best effort.
	if err := u.Cancel(w.SourceDomain(), spec.RARID); err != nil {
		t.Fatal(err)
	}
	marker.Receive(&netsim.Packet{Flow: netsim.FlowID(spec.RARID), Size: 100})
	st = sink.Stats(netsim.FlowID(spec.RARID))
	if st.RxBytesByCls[netsim.BestEffort] == 0 {
		t.Fatal("cancelled flow still marked premium")
	}
}

// TestNewChecksItsConfig: bb.New is the one place a broker's config is
// checked, so a peering and a replica set that disagree with the rest of
// the config are refused there, by name, before anything serves — and a
// peering that agrees is pinned into the trust store. An events
// directory that cannot be opened is refused after the journal opened,
// and a refused config leaves no goroutine of the journal running.
func TestNewChecksItsConfig(t *testing.T) {
	topo, err := topology.Linear(3, 100*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := pki.NewCA(identity.NewDN("Grid", "", "CA"))
	if err != nil {
		t.Fatal(err)
	}
	certs := make(map[string]*pki.Certificate)
	keys := make(map[string]*identity.KeyPair)
	for _, name := range topo.Domains() {
		d, _ := topo.Domain(name)
		if keys[name], err = identity.GenerateKeyPair(d.BBDN); err != nil {
			t.Fatal(err)
		}
		if certs[name], err = ca.IssueIdentity(d.BBDN, keys[name].Public(), 0, "bb"); err != nil {
			t.Fatal(err)
		}
	}
	config := func(edit func(*bb.Config)) bb.Config {
		cfg := bb.Config{
			Domain:   "Domain1",
			Key:      keys["Domain1"],
			Cert:     certs["Domain1"],
			Trust:    pki.NewTrustStore(16),
			Policy:   policysrv.New("Domain1", policy.MustParse("p", "allow if bw <= avail\ndeny")),
			Capacity: 100 * units.Mbps,
			Topo:     topo,
			Peers: []bb.Peering{
				{Domain: "Domain0", Cert: certs["Domain0"], SLARate: 100 * units.Mbps},
				{Domain: "Domain2", Cert: certs["Domain2"], SLARate: 100 * units.Mbps},
			},
		}
		edit(&cfg)
		return cfg
	}
	notADir := filepath.Join(t.TempDir(), "events")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		edit func(*bb.Config)
		want string // "" builds
	}{
		{"neighbour peerings", func(*bb.Config) {}, ""},
		{"a peer's certificate is another domain's broker", func(c *bb.Config) {
			c.Peers[1].Cert = certs["Domain0"]
		}, "bb Domain1: peer Domain2: certificate subject " + string(keys["Domain0"].DN) + " is not the topology's broker for that domain"},
		{"a peer the topology does not know", func(c *bb.Config) {
			c.Peers[1].Domain = "Elsewhere"
		}, "bb Domain1: peer Elsewhere: certificate subject " + string(keys["Domain2"].DN) + " is not the topology's broker for that domain"},
		{"a peering with this broker's own domain", func(c *bb.Config) {
			c.Peers[1].Domain, c.Peers[1].Cert = "Domain1", certs["Domain1"]
		}, "bb Domain1: peer Domain1 is this broker's own domain"},
		{"a peering with no SLA rate", func(c *bb.Config) {
			c.Peers[1].SLARate = 0
		}, "bb Domain1: peer Domain2: SLA rate 0b/s is not positive"},
		{"a replica set without this broker's own id", func(c *bb.Config) {
			c.StateDir, c.ReplicaID, c.ReplicaAddrs = t.TempDir(), 2, map[int]string{0: "r0", 1: "r1"}
		}, "bb Domain1: the replica addresses leave out this broker's own replica id 2"},
		{"a replica set without a state directory", func(c *bb.Config) {
			c.ReplicaAddrs = map[int]string{0: "r0", 1: "r1"}
		}, "bb Domain1: replication requires a state directory (the stream is the journal)"},
		{"an events directory that is a file", func(c *bb.Config) {
			c.StateDir, c.EventsDir = t.TempDir(), notADir
		}, "bb Domain1: flight recorder: mkdir " + notADir + ": not a directory"},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := config(row.edit)
			// Earlier tests' goroutines may still be winding down: take
			// the baseline once the count has stopped falling.
			base := runtime.NumGoroutine()
			for i := 0; i < 100; i++ {
				time.Sleep(10 * time.Millisecond)
				n := runtime.NumGoroutine()
				if n == base {
					break
				}
				base = n
			}
			b, err := bb.New(cfg)
			if row.want != "" {
				if err == nil || err.Error() != row.want {
					t.Fatalf("bb.New: err = %v, want %q", err, row.want)
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<16)
						t.Fatalf("%d goroutines, started with %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
					}
					time.Sleep(5 * time.Millisecond)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			b.Close()
			for _, p := range cfg.Peers {
				if pub, ok := cfg.Trust.PeerKey(p.Cert.SubjectDN()); !ok || !pub.Equal(p.Cert.PublicKey()) {
					t.Errorf("peer %s is not pinned in the trust store", p.Domain)
				}
			}
		})
	}
}
