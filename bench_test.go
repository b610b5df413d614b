// Benchmarks regenerating every figure-level experiment of the paper,
// plus ablations for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Latency-style results (figures 3/5, tunnels) are wall-clock costs of
// the full control-plane round trip over the in-memory transport with
// zero injected latency, i.e. pure protocol + crypto cost; the
// latency-scaled series are produced by cmd/experiments.
package e2eqos_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/core"
	"e2eqos/internal/envelope"
	"e2eqos/internal/experiment"
	"e2eqos/internal/gara"
	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/obs"
	"e2eqos/internal/pki"
	"e2eqos/internal/policy"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// --- Figure 1: policy evaluation ------------------------------------------

func BenchmarkFig1PolicyEvaluation(b *testing.B) {
	req := &policy.Request{
		User:      policy.AliceDN,
		Bandwidth: 10 * units.Mbps,
		Available: 100 * units.Mbps,
		Time:      time.Date(2001, 8, 7, 12, 0, 0, 0, time.UTC),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := policy.Figure6PolicyA.Evaluate(req); !d.Granted() {
			b.Fatal("unexpected deny")
		}
	}
}

// --- Figures 3 & 5: signalling strategies ---------------------------------

// benchWorldTelemetry mirrors benchWorld with the full telemetry
// stack on: per-broker metrics plus a flight recorder sampling 1% of
// requests into a throwaway events directory — the deployment
// configuration the sampled sub-flow arm measures against the
// uninstrumented baseline.
func benchWorldTelemetry(b *testing.B, domains int) (*experiment.World, *experiment.User) {
	b.Helper()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: domains,
		Capacity:   units.Bandwidth(1000) * units.Gbps,
		EnableObs:  true,
		EventsDir:  b.TempDir(),
		Broker:     bb.Config{SampleRate: 0.01},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(u.Close)
	warm := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	if res, err := u.ReserveE2E(warm); err != nil || !res.Granted {
		b.Fatalf("warmup failed: %v %+v", err, res)
	}
	return w, u
}

// benchWorld builds a warmed N-domain world plus user for signalling
// benchmarks.
func benchWorld(b *testing.B, domains int, universalTrust bool) (*experiment.World, *experiment.User, *gara.NetworkAPI) {
	b.Helper()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:            domains,
		Capacity:              units.Bandwidth(1000) * units.Gbps,
		TrustUserCAEverywhere: universalTrust,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(u.Close)
	api := gara.NewNetworkAPI(w.Topo)
	warm := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	if res, err := api.Reserve(u, warm, gara.Concurrent); err != nil || !res.Granted {
		// Fall back to hop-by-hop warmup when local mode is untrusted.
		if res2, err2 := u.ReserveE2E(warm); err2 != nil || !res2.Granted {
			b.Fatalf("warmup failed: %v %v", err, err2)
		}
	}
	return w, u, api
}

func benchStrategy(b *testing.B, domains int, strat gara.Strategy) {
	_, u, api := benchWorld(b, domains, strat != gara.HopByHop)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := u.NewSpec(experiment.SpecOptions{DestDomain: "Domain" + fmt.Sprint(domains-1), Bandwidth: units.Mbps})
		res, err := api.Reserve(u, spec, strat)
		if err != nil || !res.Granted {
			b.Fatalf("reserve failed: %v %+v", err, res)
		}
	}
}

func BenchmarkFig3SourceDomainSignalling(b *testing.B) {
	for _, n := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("sequential/domains=%d", n), func(b *testing.B) {
			benchStrategy(b, n, gara.Sequential)
		})
		b.Run(fmt.Sprintf("concurrent/domains=%d", n), func(b *testing.B) {
			benchStrategy(b, n, gara.Concurrent)
		})
	}
}

func BenchmarkFig5HopByHopSignalling(b *testing.B) {
	for _, n := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("domains=%d", n), func(b *testing.B) {
			benchStrategy(b, n, gara.HopByHop)
		})
	}
}

// --- Figure 4: misreservation attack --------------------------------------

func BenchmarkFig4Misreservation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		results, _, err := experiment.RunFigure4(500 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if results[0].AliceGoodput >= results[1].AliceGoodput {
			b.Fatal("attack did not degrade the honest flow")
		}
	}
}

// --- Figure 6: full-path policy enforcement -------------------------------

func BenchmarkFig6EndToEndPolicy(b *testing.B) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains: 3,
		Labels:     []string{"DomainA", "DomainB", "DomainC"},
		Capacity:   units.Bandwidth(1000) * units.Gbps,
		Policies: map[string]*policy.Policy{
			"DomainA": policy.Figure6PolicyA,
			"DomainB": policy.Figure6PolicyB,
			"DomainC": policy.Figure6PolicyC,
		},
		Pools: map[string]map[string]units.Bandwidth{"DomainC": {"cpu": 1 << 20}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	alice, err := w.NewUser("Alice", "DomainA", []string{"network-reservation"}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(alice.Close)
	now := time.Now()
	noon := time.Date(now.Year(), now.Month(), now.Day(), 12, 0, 0, 0, time.UTC).AddDate(0, 0, 1)
	win := units.NewWindow(noon, time.Hour)
	cpu, err := w.Pools["DomainC"]["cpu"].Admit(resv.AdmitRequest{User: alice.DN(), Bandwidth: 1, Window: units.NewWindow(noon, 24*time.Hour)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := alice.NewSpec(experiment.SpecOptions{
			DestDomain: "DomainC",
			Bandwidth:  10 * units.Mbps,
			Window:     win,
			Linked:     map[string]string{"cpu": cpu.Handle},
		})
		res, err := alice.ReserveE2E(spec)
		if err != nil || !res.Granted {
			b.Fatalf("reserve failed: %v %+v", err, res)
		}
	}
}

// --- Figure 7: capability delegation chain --------------------------------

func BenchmarkFig7DelegationChain(b *testing.B) {
	for _, hops := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			w, err := experiment.BuildProtocolWorld(hops, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Propagate(w.NewSpec()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- §6.4: transitive trust verification ----------------------------------

// BenchmarkTrustChainVerify times the destination's Verify of an RAR
// that crossed hops domains (hops layers: the user's and one per
// upstream broker), warm — the destination has seen the path's
// certificates, as a broker on a standing SLA path has. ns/layer and
// allocs/layer divide by the layer count: the signature check is per
// layer by nature, everything else about a layer (decode, key lookup)
// should cost the same at 2 hops as at 8.
func BenchmarkTrustChainVerify(b *testing.B) {
	for _, hops := range []int{1, 2, 3, 5, 8} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			w, err := experiment.BuildProtocolWorld(hops, false)
			if err != nil {
				b.Fatal(err)
			}
			// Build the final RAR once; benchmark only the
			// destination's verification.
			spec := w.NewSpec()
			env, err := w.User.BuildRAR(spec, w.Certs[0])
			if err != nil {
				b.Fatal(err)
			}
			peerDN := w.User.Key.DN
			peerCert := w.User.Cert.DER
			now := time.Now()
			for i := 0; i < hops-1; i++ {
				verified, err := w.Brokers[i].Verify(env, peerDN, peerCert, now)
				if err != nil {
					b.Fatal(err)
				}
				env, err = w.Brokers[i].Extend(env, peerCert, verified, w.Certs[i+1], nil)
				if err != nil {
					b.Fatal(err)
				}
				peerDN = w.Brokers[i].DN()
				peerCert = w.Certs[i].DER
			}
			dest := w.Brokers[hops-1]
			if _, err := dest.Verify(env, peerDN, peerCert, now); err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dest.Verify(env, peerDN, peerCert, now); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			layers := float64(b.N) * float64(hops)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/layers, "ns/layer")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/layers, "allocs/layer")
		})
	}
}

// --- Tunnels: per-flow signalling vs sub-flow allocation -------------------

func BenchmarkTunnelVsPerFlow(b *testing.B) {
	b.Run("per-flow-e2e/domains=5", func(b *testing.B) {
		_, u, _ := benchWorld(b, 5, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spec := u.NewSpec(experiment.SpecOptions{DestDomain: "Domain4", Bandwidth: units.Mbps})
			res, err := u.ReserveE2E(spec)
			if err != nil || !res.Granted {
				b.Fatalf("reserve failed: %v %+v", err, res)
			}
		}
	})
	b.Run("tunnel-subflow/domains=5", func(b *testing.B) {
		w, u, _ := benchWorld(b, 5, false)
		spec := u.NewSpec(experiment.SpecOptions{
			DestDomain: "Domain4",
			Bandwidth:  units.Bandwidth(100) * units.Gbps,
			Tunnel:     true,
		})
		res, err := u.ReserveE2E(spec)
		if err != nil || !res.Granted {
			b.Fatalf("tunnel establishment failed: %v %+v", err, res)
		}
		src := w.BBs[w.SourceDomain()]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := src.AllocateTunnelFlow(spec.RARID, fmt.Sprintf("sub-%d", i), units.Mbps, u.DN()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSubFlowThroughput measures the tunnel sub-flow hot path:
// MsgTunnelBatch at increasing batch sizes, from batch=1 (one round
// trip per sub-flow, what a single allocation is) up. b.N counts
// *allocations* in every arm — the arms step the loop by the batch
// size — so ns/op is directly comparable and allocations/sec is the
// inverse. The sweep with message counts is `cmd/experiments -exp
// subflows`; the gated number is the benchmark's tunnel_batch256. The
// sampled=1pct arm repeats batch=64 with the full telemetry stack on
// (metrics registries plus a flight recorder at 1% sampling); the bar
// there is throughput within 5% of the uninstrumented batch=64 arm,
// recorded in BENCH_obs.json.
func BenchmarkSubFlowThroughput(b *testing.B) {
	establish := func(b *testing.B, u *experiment.User) *core.Spec {
		spec := u.NewSpec(experiment.SpecOptions{
			DestDomain: "Domain4",
			Bandwidth:  units.Bandwidth(100) * units.Gbps,
			Tunnel:     true,
		})
		res, err := u.ReserveE2E(spec)
		if err != nil || !res.Granted {
			b.Fatalf("tunnel establishment failed: %v %+v", err, res)
		}
		return spec
	}
	setup := func(b *testing.B) (*experiment.World, *experiment.User, *core.Spec) {
		w, u, _ := benchWorld(b, 5, false)
		return w, u, establish(b, u)
	}
	// Sub-flow churn is steady-state in deployment — flows come and go,
	// the live set stays bounded — so every window of allocations is
	// drained off-timer: the arms measure admission cost, not the cost
	// of growing one endpoint's sub-flow map without bound.
	const window = 4096
	drain := func(b *testing.B, w *experiment.World, u *experiment.User, rarID string, lo, hi int) {
		b.StopTimer()
		src := w.BBs[w.SourceDomain()]
		for start := lo; start < hi; start += 256 {
			end := start + 256
			if end > hi {
				end = hi
			}
			ops := make([]signalling.TunnelOp, 0, end-start)
			for j := start; j < end; j++ {
				ops = append(ops, signalling.TunnelOp{Action: signalling.OpRelease, SubFlowID: fmt.Sprintf("sub-%d", j)})
			}
			if _, err := src.TunnelBatch(rarID, ops, u.DN()); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	runBatch := func(b *testing.B, w *experiment.World, u *experiment.User, spec *core.Spec, size int) {
		src := w.BBs[w.SourceDomain()]
		b.ResetTimer()
		for i := 0; i < b.N; i += size {
			if i > 0 && i%window == 0 {
				drain(b, w, u, spec.RARID, i-window, i)
			}
			n := size
			if rest := b.N - i; n > rest {
				n = rest
			}
			ops := make([]signalling.TunnelOp, n)
			for j := range ops {
				ops[j] = signalling.TunnelOp{
					Action:    signalling.OpAlloc,
					SubFlowID: fmt.Sprintf("sub-%d", i+j),
					Bandwidth: int64(units.Kbps),
				}
			}
			results, err := src.TunnelBatch(spec.RARID, ops, u.DN())
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range results {
				if !r.Granted {
					b.Fatalf("op %s denied: %s", r.SubFlowID, r.Reason)
				}
			}
		}
	}
	for _, size := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch=%d/domains=5", size), func(b *testing.B) {
			w, u, spec := setup(b)
			runBatch(b, w, u, spec, size)
		})
	}
	b.Run("batch=64/sampled=1pct/domains=5", func(b *testing.B) {
		w, u := benchWorldTelemetry(b, 5)
		runBatch(b, w, u, establish(b, u), 64)
	})
}

// --- Observability overhead ------------------------------------------------

// BenchmarkReserveChainTraced is the observability cost guard over the
// 5-domain grant hot path (the same chain as
// BenchmarkTunnelVsPerFlow/per-flow-e2e):
//
//	off     no registries, no trace id — must stay within noise of the
//	        pre-observability baseline (the nil-handle no-op design)
//	metrics per-broker registries collecting, tracing off
//	traced  registries plus a trace id, so every hop also records and
//	        returns a span
//
// BENCH_obs.json records the before/after numbers.
func BenchmarkReserveChainTraced(b *testing.B) {
	run := func(b *testing.B, enableObs, traced bool) {
		w, err := experiment.BuildWorld(experiment.WorldConfig{
			NumDomains: 5,
			Capacity:   units.Bandwidth(1000) * units.Gbps,
			EnableObs:  enableObs,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(w.Close)
		u, err := w.NewUser("alice", "", nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(u.Close)
		reserve := u.ReserveE2E
		if traced {
			c, err := signalling.Dial(w.Net.NewEndpoint(u.DN(), u.Agent.Cert.DER), w.BBAddr(u.Domain))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { c.Close() })
			reserve = func(spec *core.Spec) (*signalling.ResultPayload, error) {
				rar, err := u.Agent.BuildRAR(spec, w.BBCerts[u.Domain])
				if err != nil {
					return nil, err
				}
				msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, rar)
				if err != nil {
					return nil, err
				}
				msg.Reserve.TraceID = obs.NewTraceID()
				resp, err := c.Call(msg, 0)
				if err != nil {
					return nil, err
				}
				return resp.Result, nil
			}
		}
		warm := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
		if res, err := reserve(warm); err != nil || !res.Granted {
			b.Fatalf("warmup failed: %v %+v", err, res)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spec := u.NewSpec(experiment.SpecOptions{DestDomain: "Domain4", Bandwidth: units.Mbps})
			res, err := reserve(spec)
			if err != nil || !res.Granted {
				b.Fatalf("reserve failed: %v %+v", err, res)
			}
			if traced && len(res.Trace) != 5 {
				b.Fatalf("traced grant carries %d spans, want 5", len(res.Trace))
			}
		}
	}
	b.Run("off/domains=5", func(b *testing.B) { run(b, false, false) })
	b.Run("metrics/domains=5", func(b *testing.B) { run(b, true, false) })
	b.Run("traced/domains=5", func(b *testing.B) { run(b, true, true) })
}

// --- Concurrency: multiplexed signalling under parallel load ----------------

// BenchmarkConcurrentReserveChain measures end-to-end reserve
// throughput over a 4-domain chain with a modelled 2ms one-way hop
// latency, as the number of parallel requesters grows. All requesters
// share one user agent, so their calls multiplex over the same pooled
// connections. parallel=1 is the serialized baseline (one call in
// flight per connection — what the pre-mux client enforced
// structurally); the higher arms overlap the wire latency across
// in-flight calls and should scale until CPU-bound.
// BENCH_concurrency.json records the numbers.
func BenchmarkConcurrentReserveChain(b *testing.B) {
	for _, parallel := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			w, err := experiment.BuildWorld(experiment.WorldConfig{
				NumDomains:  4,
				Capacity:    units.Bandwidth(1000) * units.Gbps,
				Latency:     2 * time.Millisecond,
				CallTimeout: 5 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(w.Close)
			u, err := w.NewUser("alice", "", nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(u.Close)
			warm := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
			if res, err := u.ReserveE2E(warm); err != nil || !res.Granted {
				b.Fatalf("warmup failed: %v %+v", err, res)
			}
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			errc := make(chan error, parallel)
			for g := 0; g < parallel; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
						res, err := u.ReserveE2E(spec)
						if err != nil || !res.Granted {
							errc <- fmt.Errorf("reserve failed: %v %+v", err, res)
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
		})
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationEnvelopeCrypto isolates the cost the signature check
// adds per hop: seal and verify one layer versus sealing it alone.
func BenchmarkAblationEnvelopeCrypto(b *testing.B) {
	key, err := identity.GenerateKeyPair(identity.NewDN("Grid", "A", "bb"))
	if err != nil {
		b.Fatal(err)
	}
	body := envelope.Body{Request: []byte(`{"bw":"10Mb/s","dst":"DomainC"}`), NextHopDN: key.DN}
	b.Run("signed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			env, err := envelope.Seal(key, body)
			if err != nil {
				b.Fatal(err)
			}
			if err := identity.Verify(key.Public(), env.Payload, env.Signature); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unsigned-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := envelope.Seal(key, body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCapabilityDelegation measures one §6.5 delegation
// step (issue a new capability certificate to the next broker).
func BenchmarkAblationCapabilityDelegation(b *testing.B) {
	w, err := experiment.BuildProtocolWorld(2, true)
	if err != nil {
		b.Fatal(err)
	}
	cred := w.User.Credential
	next, err := identity.GenerateKeyPair(identity.NewDN("Grid", "X", "bb"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pki.Delegate(cred.Certificate, w.User.Key.DN, cred.Proxy.Private,
			next.DN, next.Public(), []string{"valid-for-rar:bench"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAdmissionControl measures one admission — a peak
// query on the table's time-axis ledger plus the insert — as the table
// fills. The first arms stagger hour-long windows a minute apart, so at
// most sixty overlap the request; the last packs 2000 windows a second
// apart, all of them overlapping each other and the request.
func BenchmarkAblationAdmissionControl(b *testing.B) {
	for _, arm := range []struct {
		preload int
		stagger time.Duration
	}{
		{0, time.Minute}, {100, time.Minute}, {1000, time.Minute}, {2000, time.Second},
	} {
		b.Run(fmt.Sprintf("existing=%d", arm.preload), func(b *testing.B) {
			table, err := resv.NewTable("bench", units.Bandwidth(1<<40))
			if err != nil {
				b.Fatal(err)
			}
			base := time.Now()
			for i := 0; i < arm.preload; i++ {
				if _, err := table.Admit(resv.AdmitRequest{
					Bandwidth: units.Mbps,
					Window:    units.NewWindow(base.Add(time.Duration(i)*arm.stagger), time.Hour),
				}); err != nil {
					b.Fatal(err)
				}
			}
			win := units.NewWindow(base, time.Hour)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := table.Admit(resv.AdmitRequest{Bandwidth: units.Mbps, Window: win})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				_ = table.Cancel(r.Handle)
				b.StartTimer()
			}
		})
	}
}

// BenchmarkCoreRARConstruction measures RAR_U construction by the user
// agent (spec signing plus the first capability delegation).
func BenchmarkCoreRARConstruction(b *testing.B) {
	w, err := experiment.BuildProtocolWorld(2, true)
	if err != nil {
		b.Fatal(err)
	}
	spec := w.NewSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := w.User.BuildRAR(spec, w.Certs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Durability: journaled admission overhead ------------------------------

// BenchmarkJournaledAdmit measures what the write-ahead journal adds to
// the admission hot path, per fsync policy, against the in-memory
// baseline (the numbers recorded in BENCH_journal.json). The clock sits
// a day past every admitted window so the automatic sweep keeps the
// table bounded at sweep-interval size — the steady state of a
// long-running broker, not an ever-growing table.
func BenchmarkJournaledAdmit(b *testing.B) {
	base := time.Date(2001, 8, 7, 9, 0, 0, 0, time.UTC)
	now := base.Add(24 * time.Hour)
	win := units.Window{Start: base, End: base.Add(time.Minute)}
	newBenchTable := func(b *testing.B) *resv.Table {
		tab, err := resv.NewTable("net-bench", 1000*units.Gbps)
		if err != nil {
			b.Fatal(err)
		}
		tab.SetClock(func() time.Time { return now })
		return tab
	}
	admitLoop := func(b *testing.B, tab *resv.Table) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := tab.Admit(resv.AdmitRequest{Bandwidth: units.Mbps, Window: win}); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("memory", func(b *testing.B) {
		admitLoop(b, newBenchTable(b))
	})
	for _, pol := range []struct {
		name  string
		fsync journal.Policy
	}{
		{"batch", journal.FsyncBatch},
		{"always", journal.FsyncAlways},
		{"never", journal.FsyncNever},
	} {
		b.Run("journal-"+pol.name, func(b *testing.B) {
			tab := newBenchTable(b)
			j, _, err := journal.Open(b.TempDir(), journal.Options{Fsync: pol.fsync})
			if err != nil {
				b.Fatal(err)
			}
			resv.AttachJournal(tab, j)
			admitLoop(b, tab)
			b.StopTimer()
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- Replication: commit-gated admission overhead --------------------------

// BenchmarkReplicatedAdmit measures what the replica group adds to the
// broker-level admission path (the numbers recorded in
// BENCH_replication.json): a full end-to-end reserve over a two-domain
// chain, unreplicated vs a 3-replica group at each domain. Both arms
// journal with batch fsync; the replicated arm additionally streams
// every record to two followers and withholds the settlement until a
// majority acknowledged it. The commit wait overlaps the group-commit
// fsync window, so the target is well under 2x the unreplicated arm.
func BenchmarkReplicatedAdmit(b *testing.B) {
	run := func(b *testing.B, replicas int) {
		w, err := experiment.BuildWorld(experiment.WorldConfig{
			NumDomains:  2,
			Replicas:    replicas,
			Capacity:    1000 * units.Gbps,
			StateDir:    b.TempDir(),
			FsyncPolicy: "batch",
			CallTimeout: 5 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		u, err := w.NewUser("alice", "", nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer u.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
			res, err := u.ReserveE2E(spec)
			if err != nil || !res.Granted {
				b.Fatalf("reserve %d: %v %+v", i, err, res)
			}
		}
	}
	b.Run("unreplicated", func(b *testing.B) { run(b, 1) })
	b.Run("replicated-3", func(b *testing.B) { run(b, 3) })
}
