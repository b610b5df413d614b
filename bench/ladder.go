package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/envelope"
	"e2eqos/internal/experiment"
	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/policy"
	"e2eqos/internal/policysrv"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/topology"
	"e2eqos/internal/transport"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
)

// The layer ladder walks the workload's own requests hop by hop through
// the same public calls a broker makes, off the live path, and times
// each call: what a hop costs when every layer is asked one at a time
// with nothing else running. The live hop's self time minus the
// ladder's sum for that hop is what no named layer accounts for.

const (
	ladderMinIters = 20
	ladderMaxIters = 400
	// journalRecordsPerHop is how many records a broker appends per
	// hop in each phase: the table's admit (or cancel) event and the
	// route entry (or its removal). journal.records_per_cycle, counted
	// on the live run, is the check on this constant.
	journalRecordsPerHop = 2
)

// layer is one rung's result.
type layer struct {
	Name  string `json:"name"`
	Phase string `json:"phase"`
	// Calls is how often one cycle's phase makes the call; MeanUS what
	// one call took; PhaseMS their product — the rung's share of the
	// phase.
	Calls   float64 `json:"calls_per_phase"`
	MeanUS  float64 `json:"mean_us"`
	PhaseMS float64 `json:"phase_ms"`
}

type layerAcc struct {
	sum   time.Duration
	calls int
}

// ladder accumulates timed calls by (phase, layer).
type ladder struct {
	t     *tracer
	iters int
	phase string
	cycle int64
	acc   map[string]*layerAcc // key: phase + "/" + layer
	// perHop[layer][hop] accumulates acquire-phase time by hop, for
	// the sums and last-hop figures.
	perHop map[string][]time.Duration
	spans  []span
	// bytes and frames count every encoded frame.
	bytes, frames int64
	lastHopWire   int64
}

func newLadder(t *tracer) *ladder {
	return &ladder{t: t, acc: make(map[string]*layerAcc), perHop: make(map[string][]time.Duration)}
}

// timeN times fn, which makes n calls of layer name on behalf of hop.
func (l *ladder) timeN(name string, hop, n int, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	l.add(name, hop, n, t0, t1)
}

// add books n calls of layer name that together ran from t0 to t1.
func (l *ladder) add(name string, hop, n int, t0, t1 time.Time) {
	d := t1.Sub(t0)
	key := l.phase + "/" + name
	a := l.acc[key]
	if a == nil {
		a = &layerAcc{}
		l.acc[key] = a
	}
	a.sum += d
	a.calls += n
	if l.phase == "acquire" {
		ph := l.perHop[name]
		for len(ph) <= hop {
			ph = append(ph, 0)
		}
		ph[hop] += d
		l.perHop[name] = ph
	}
	if l.iters == 0 && l.t != nil { // spans of the first walk only
		l.spans = append(l.spans, span{Cycle: l.cycle, Phase: l.phase + ":" + name, Hop: hop, Parent: hop,
			Start: l.t.since(t0), End: l.t.since(t1)})
	}
}

func (l *ladder) time(name string, hop int, fn func()) { l.timeN(name, hop, 1, fn) }

// mean is the mean time of one call of layer name, across phases.
func (l *ladder) mean(name string) time.Duration {
	var sum time.Duration
	var calls int
	for _, phase := range []string{"acquire", "release"} {
		if a := l.acc[phase+"/"+name]; a != nil {
			sum += a.sum
			calls += a.calls
		}
	}
	if calls == 0 {
		return 0
	}
	return sum / time.Duration(calls)
}

// hopSum is layer name's acquire-phase time per walk, summed over
// hops; hopAt is one hop's share.
func (l *ladder) hopSum(name string) time.Duration {
	var sum time.Duration
	for _, d := range l.perHop[name] {
		sum += d
	}
	return sum / time.Duration(max(l.iters, 1))
}

func (l *ladder) hopAt(name string, hop int) time.Duration {
	ph := l.perHop[name]
	if hop >= len(ph) {
		return 0
	}
	return ph[hop] / time.Duration(max(l.iters, 1))
}

// layers lists every rung, largest acquire share first.
func (l *ladder) layers() []layer {
	out := make([]layer, 0, len(l.acc))
	for key, a := range l.acc {
		phase, name, _ := strings.Cut(key, "/")
		out = append(out, layer{
			Name: name, Phase: phase,
			Calls:   float64(a.calls) / float64(max(l.iters, 1)),
			MeanUS:  us(a.sum) / float64(max(a.calls, 1)),
			PhaseMS: ms(a.sum) / float64(max(l.iters, 1)),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		if out[i].PhaseMS != out[j].PhaseMS {
			return out[i].PhaseMS > out[j].PhaseMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// phaseSum is everything the ladder timed in one phase, per walk.
func (l *ladder) phaseSum(phase string) time.Duration {
	var sum time.Duration
	for key, a := range l.acc {
		if p, _, _ := strings.Cut(key, "/"); p == phase {
			sum += a.sum
		}
	}
	return sum / time.Duration(max(l.iters, 1))
}

func (l *ladder) frame(data []byte) []byte {
	l.bytes += int64(len(data))
	l.frames++
	return data
}

// ladderResult is what a ladder run hands the traced row.
type ladderResult struct {
	metrics map[string]float64
	layers  []layer
	spans   []span
	iters   int
}

// runLadder walks wl's requests until budget is spent (at least
// ladderMinIters walks, at most ladderMaxIters).
func runLadder(wl *workload, seed int64, t *tracer, budget time.Duration, outDir string) (*ladderResult, error) {
	l := newLadder(t)
	var wk *walker
	var err error
	if wl.batch > 0 {
		wk, err = tunnelWalk(l, wl, seed)
	} else {
		wk, err = reserveWalk(l, wl, seed, outDir)
	}
	if err != nil {
		return nil, err
	}
	defer wk.done()
	walk := wk.walk
	// One untimed walk first: lazily initialised state (pools, caches)
	// is the live path's steady state too.
	if err := walk(0); err != nil {
		return nil, fmt.Errorf("ladder warm-up: %w", err)
	}
	l.acc, l.perHop, l.spans = make(map[string]*layerAcc), make(map[string][]time.Duration), nil
	l.bytes, l.frames = 0, 0
	deadline := time.Now().Add(budget)
	for l.iters < ladderMaxIters && (l.iters < ladderMinIters || time.Now().Before(deadline)) {
		if err := walk(int64(l.iters) + 1); err != nil {
			return nil, fmt.Errorf("ladder walk %d: %w", l.iters+1, err)
		}
		l.iters++
	}

	frameBytes := 0.0
	if l.frames > 0 {
		frameBytes = float64(l.bytes) / float64(l.frames)
	}
	rtt, err := transportRTT(int(frameBytes))
	if err != nil {
		return nil, err
	}
	// Every call between two parties is one round trip; the ladder
	// charges it to both phases without walking it.
	for _, phase := range []string{"acquire", "release"} {
		l.acc[phase+"/transport.rtt"] = &layerAcc{sum: rtt * time.Duration(wk.rtts*l.iters), calls: wk.rtts * l.iters}
	}

	m := map[string]float64{
		"core.verify_ms_sum":           ms(l.hopSum("core.verify")),
		"core.verify_ms_last_hop":      ms(l.hopAt("core.verify", wl.hops-1)),
		"core.extend_ms_sum":           ms(l.hopSum("core.extend")),
		"core.build_rar_ms":            ms(l.mean("core.build_rar")),
		"envelope.decode_us":           us(l.mean("envelope.decode")),
		"envelope.wire_bytes_last_hop": float64(l.lastHopWire),
		"resv.admit_us":                us(l.mean("resv.admit")),
		"resv.available_us":            us(l.mean("resv.available")),
		"resv.cancel_us":               us(l.mean("resv.cancel")),
		"journal.append_us":            us(l.mean("journal.append")),
		"signalling.encode_us":         us(l.mean("signalling.encode")),
		"signalling.decode_us":         us(l.mean("signalling.decode")),
		"signalling.validate_us":       us(l.mean("signalling.validate")),
		"signalling.sign_approval_us":  us(l.mean("signalling.sign_approval")),
		"signalling.frame_bytes":       frameBytes,
		"transport.rtt_us":             us(rtt),
		"tunnel.allocate_ns":           float64(l.mean("tunnel.allocate")),
		"tunnel.release_ns":            float64(l.mean("tunnel.release")),
		"policysrv.decide_us":          us(l.mean("policysrv.decide")),
		"topology.next_hop_ns":         float64(l.mean("topology.next_hop")),
		"ladder.acquire_ms_sum":        ms(l.phaseSum("acquire")),
		"ladder.release_ms_sum":        ms(l.phaseSum("release")),
	}
	for name, v := range wk.extra {
		m[name] = v
	}
	return &ladderResult{metrics: m, layers: l.layers(), spans: l.spans, iters: l.iters}, nil
}

// walker is a prepared ladder: walk takes request n through every
// layer once, done releases what the preparation opened, extra holds
// figures read during preparation.
type walker struct {
	walk  func(n int64) error
	done  func()
	extra map[string]float64
	// rtts is how many request/response exchanges one phase makes.
	rtts int
}

// bookTable pre-books n reservations of table number ti.
func bookTable(table *resv.Table, seed int64, ti, n int, t0 time.Time, user identity.DN) error {
	for i := 0; i < n; i++ {
		b := genBooking(seed, ti, i)
		if _, err := table.Admit(resv.AdmitRequest{
			User: user, SrcHost: "booked.src", DstHost: "booked.dst",
			Bandwidth: b.Bandwidth, Window: b.window(t0),
		}); err != nil {
			return fmt.Errorf("pre-booking %s #%d: %w", table.Name(), i, err)
		}
	}
	return nil
}

// reserveWalk prepares the standalone pieces a reserve hop touches —
// protocol brokers, one table per hop booked like the live ones, a
// policy server, the chain topology, a journal when the workload has
// one — and returns the function that walks one request through them.
func reserveWalk(l *ladder, wl *workload, seed int64, outDir string) (*walker, error) {
	hops := wl.hops
	pw, err := experiment.BuildProtocolWorld(hops, false)
	if err != nil {
		return nil, err
	}
	clock := &steppedClock{base: time.Now().Truncate(time.Second)}
	t0 := clock.base.Add(testWindowLead)
	labels := make([]string, hops)
	for i := range labels {
		labels[i] = fmt.Sprintf("Domain%d", i)
	}
	topo, err := topology.Linear(hops, capacity, labels...)
	if err != nil {
		return nil, err
	}
	ps := policysrv.New("ladder", policy.MustParse("ladder", "allow if bw <= avail\ndeny"))
	ps.SetClock(clock.now)

	tables := make([]*resv.Table, hops)
	var wg sync.WaitGroup
	bookErr := make([]error, hops)
	for k := range tables {
		tables[k], err = resv.NewTable("net-"+labels[k], capacity)
		if err != nil {
			return nil, err
		}
		tables[k].SetClock(clock.now)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			bookErr[k] = bookTable(tables[k], seed, k, wl.bookings, t0, pw.User.Key.DN)
		}(k)
	}
	wg.Wait()
	for _, err := range bookErr {
		if err != nil {
			return nil, err
		}
	}

	done := func() {}
	var j *journal.Journal
	if wl.replicas > 1 {
		dir, err := os.MkdirTemp(outDir, "ladder-")
		if err != nil {
			return nil, err
		}
		j, _, err = journal.Open(dir, journal.Options{Fsync: journal.FsyncBatch, TailBytes: 1 << 20})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		done = func() {
			j.Close()
			os.RemoveAll(dir)
		}
	}
	appendRecords := func(hop int, payload []byte) {
		if j == nil {
			return
		}
		l.timeN("journal.append", hop, journalRecordsPerHop, func() {
			for r := 0; r < journalRecordsPerHop; r++ {
				// The sticky error surfaces through j.Err below.
				_ = j.Append("bench.ladder", journal.RawBinary(payload))
			}
		})
	}

	// resv.admit_alloc_kb: heap bytes per Admit on hop 0's table, read
	// once, before the timed walks, with nothing else running.
	var admitAllocKB float64
	{
		const probes = 16
		win := genReserve(seed, 0).window(t0)
		handles := make([]string, 0, probes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < probes; i++ {
			r, err := tables[0].Admit(resv.AdmitRequest{User: pw.User.Key.DN, Bandwidth: units.Mbps, Window: win})
			if err != nil {
				return nil, err
			}
			handles = append(handles, r.Handle)
		}
		runtime.ReadMemStats(&after)
		admitAllocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / probes
		for _, h := range handles {
			if err := tables[0].Cancel(h); err != nil {
				return nil, err
			}
		}
	}

	dest := labels[hops-1]
	walk := func(n int64) error {
		op := genReserve(seed, n)
		clock.steps.Add(1)
		now := clock.now()
		l.cycle = n
		spec := &core.Spec{
			RARID: op.RARID, User: pw.User.Key.DN,
			SrcHost: "host." + labels[0], DstHost: "host." + dest,
			SourceDomain: labels[0], DestDomain: dest,
			Bandwidth: op.Bandwidth, Window: op.window(t0),
		}
		var werr error
		fail := func(err error) {
			if err != nil && werr == nil {
				werr = err
			}
		}

		// --- acquire ---
		l.phase = "acquire"
		var env *envelope.Envelope
		l.time("core.build_rar", 0, func() {
			e, err := pw.User.BuildRAR(spec, pw.Certs[0])
			fail(err)
			env = e
		})
		if werr != nil {
			return werr
		}
		var frame []byte
		encodeReserve := func(hop int) {
			l.time("signalling.encode", hop, func() {
				msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, env)
				if err != nil {
					fail(err)
					return
				}
				data, err := msg.Encode()
				fail(err)
				frame = l.frame(data)
			})
		}
		encodeReserve(0)
		peerDN, peerCert := pw.User.Key.DN, pw.User.Cert.DER
		handles := make([]string, hops)
		for k := 0; k < hops && werr == nil; k++ {
			var msg *signalling.Message
			l.time("signalling.decode", k, func() {
				m, err := signalling.DecodeMessage(frame)
				fail(err)
				msg = m
			})
			if werr != nil {
				break
			}
			if k == hops-1 {
				l.lastHopWire = int64(len(msg.Reserve.EnvelopeData))
			}
			l.time("envelope.decode", k, func() {
				e, err := msg.Reserve.Envelope()
				fail(err)
				env = e
			})
			if werr != nil {
				break
			}
			var verified *core.VerifiedRequest
			l.time("core.verify", k, func() {
				v, err := pw.Brokers[k].Verify(env, peerDN, peerCert, now)
				fail(err)
				verified = v
			})
			if werr != nil {
				break
			}
			vs := verified.Spec
			// A transit or destination hop reads the table's headroom
			// twice (SLA conformance, then the policy query); the
			// ingress hop once.
			reads := 2
			if k == 0 {
				reads = 1
			}
			var avail units.Bandwidth
			l.timeN("resv.available", k, reads, func() {
				for r := 0; r < reads; r++ {
					avail = tables[k].Available(vs.Window)
				}
			})
			l.time("policysrv.decide", k, func() {
				res, err := ps.Decide(&policysrv.Query{
					User: vs.User, Bandwidth: vs.Bandwidth, Window: vs.Window, Available: avail,
					SourceDomain: vs.SourceDomain, DestDomain: vs.DestDomain,
					CapabilityChain:    verified.Capabilities,
					RequireRestriction: vs.RestrictionFor(),
					LinkedReservations: map[string]bool{},
				})
				if err == nil && !res.Decision.Granted() {
					err = fmt.Errorf("policy denied: %s", res.Decision.Reason)
				}
				fail(err)
			})
			l.time("resv.admit", k, func() {
				r, err := tables[k].Admit(resv.AdmitRequest{
					User: vs.User, SrcHost: vs.SrcHost, DstHost: vs.DstHost,
					Bandwidth: vs.Bandwidth, Window: vs.Window,
				})
				if err != nil {
					fail(err)
					return
				}
				handles[k] = r.Handle
			})
			if werr != nil {
				break
			}
			if k+1 < hops {
				// The live path asks once per hop; 64 calls lift the
				// figure over the timer's resolution and one of them
				// is booked.
				const reps = 64
				h0 := time.Now()
				for r := 0; r < reps; r++ {
					_, err := topo.NextHop(labels[k], dest)
					fail(err)
				}
				l.add("topology.next_hop", k, 1, h0, h0.Add(time.Since(h0)/reps))
				l.time("core.extend", k, func() {
					e, err := pw.Brokers[k].Extend(env, peerCert, verified, pw.Certs[k+1], nil)
					fail(err)
					env = e
				})
				if werr != nil {
					break
				}
				encodeReserve(k)
				peerDN, peerCert = pw.Brokers[k].DN(), pw.Certs[k].DER
			}
		}
		if werr != nil {
			return werr
		}
		// The grant returns destination first, each hop signing its
		// approval on top, journaling, and encoding for its caller.
		var approvals []signalling.DomainApproval
		for k := hops - 1; k >= 0 && werr == nil; k-- {
			a := signalling.DomainApproval{Domain: labels[k], BBDN: pw.Brokers[k].DN(), RARID: spec.RARID, Handle: handles[k], Granted: true}
			l.time("signalling.sign_approval", k, func() { fail(signalling.SignApproval(&a, pw.Brokers[k].Key)) })
			approvals = append(approvals, a)
			res := &signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{
				Granted: true, Handle: handles[k], Approvals: approvals,
			}}
			l.time("signalling.encode", k, func() {
				data, err := res.Encode()
				fail(err)
				frame = l.frame(data)
			})
			appendRecords(k, frame)
			l.time("signalling.decode", k, func() {
				_, err := signalling.DecodeMessage(frame)
				fail(err)
			})
		}
		if werr != nil {
			return werr
		}

		// --- release ---
		l.phase = "release"
		for k := 0; k < hops && werr == nil; k++ {
			cancel := &signalling.Message{Type: signalling.MsgCancel, Cancel: &signalling.CancelPayload{RARID: spec.RARID}}
			l.time("signalling.encode", k, func() {
				data, err := cancel.Encode()
				fail(err)
				frame = l.frame(data)
			})
			l.time("signalling.decode", k, func() {
				_, err := signalling.DecodeMessage(frame)
				fail(err)
			})
			appendRecords(k, frame)
			l.time("resv.cancel", k, func() { fail(tables[k].Cancel(handles[k])) })
		}
		for k := hops - 1; k >= 0 && werr == nil; k-- {
			l.time("signalling.encode", k, func() {
				data, err := signalling.OKResult(handles[k]).Encode()
				fail(err)
				frame = l.frame(data)
			})
			l.time("signalling.decode", k, func() {
				_, err := signalling.DecodeMessage(frame)
				fail(err)
			})
		}
		if werr == nil && j != nil {
			werr = j.Err()
		}
		return werr
	}
	return &walker{walk: walk, done: done, rtts: hops, extra: map[string]float64{"resv.admit_alloc_kb": admitAllocKB}}, nil
}

// tunnelWalk prepares two standalone tunnel endpoints holding the
// standing sub-flows and returns the function that takes one batch
// through validate, local admission, encode, decode, remote admission
// and the one-bit result.
func tunnelWalk(l *ladder, wl *workload, seed int64) (*walker, error) {
	t0 := time.Now().Add(testWindowLead)
	win := units.Window{Start: t0, End: t0.Add(testWindowSpan)}
	srcDN, dstDN := identity.NewDN("Grid", "Domain0", "bb-0"), identity.NewDN("Grid", "Domain4", "bb-4")
	user := identity.NewDN("Grid", "Domain0", "alice0")
	var eps [2]*tunnel.Endpoint
	for i, peer := range []identity.DN{dstDN, srcDN} {
		ep, err := tunnel.NewEndpoint("tunnel-ladder", tunnelRate, win, peer, user)
		if err != nil {
			return nil, err
		}
		for k := 1; k <= wl.standing/wl.batch; k++ {
			for _, op := range genBatch(seed, int64(-k), wl.batch).Alloc {
				if _, err := ep.Allocate(op.SubFlowID, units.Bandwidth(op.Bandwidth)); err != nil {
					return nil, err
				}
			}
		}
		eps[i] = ep
	}
	phase := func(name string, ops []signalling.TunnelOp) error {
		l.phase = name
		var werr error
		fail := func(err error) {
			if err != nil && werr == nil {
				werr = err
			}
		}
		apply := func(hop int) {
			layer := "tunnel.allocate"
			if name == "release" {
				layer = "tunnel.release"
			}
			l.timeN(layer, hop, len(ops), func() {
				for _, op := range ops {
					var err error
					if op.Action == signalling.OpAlloc {
						_, err = eps[hop].Allocate(op.SubFlowID, units.Bandwidth(op.Bandwidth))
					} else {
						_, _, err = eps[hop].Release(op.SubFlowID)
					}
					fail(err)
				}
			})
		}
		payload := &signalling.TunnelBatchPayload{TunnelRARID: "tunnel-ladder", BatchID: signalling.NewBatchID(), User: user, Ops: ops}
		l.time("signalling.validate", 0, func() { fail(payload.Validate()) })
		apply(0)
		var frame []byte
		l.time("signalling.encode", 0, func() {
			data, err := (&signalling.Message{Type: signalling.MsgTunnelBatch, TunnelBatch: payload}).Encode()
			fail(err)
			frame = l.frame(data)
		})
		var msg *signalling.Message
		l.time("signalling.decode", 1, func() {
			m, err := signalling.DecodeMessage(frame)
			fail(err)
			msg = m
		})
		if werr != nil {
			return werr
		}
		l.time("signalling.validate", 1, func() { fail(msg.TunnelBatch.Validate()) })
		apply(1)
		l.time("signalling.encode", 1, func() {
			data, err := (&signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{Granted: true}}).Encode()
			fail(err)
			frame = l.frame(data)
		})
		l.time("signalling.decode", 0, func() {
			_, err := signalling.DecodeMessage(frame)
			fail(err)
		})
		return werr
	}
	walk := func(n int64) error {
		l.cycle = n
		op := genBatch(seed, n, wl.batch)
		if err := phase("acquire", op.Alloc); err != nil {
			return err
		}
		return phase("release", op.Release)
	}
	return &walker{walk: walk, done: func() {}, rtts: 1}, nil
}

// transportRTT is the mean round trip of one frame of size bytes and
// its echo over a fresh in-memory connection with nothing else running:
// two channel hand-offs and two goroutine wake-ups.
func transportRTT(size int) (time.Duration, error) {
	const trips = 2000
	net := transport.NewNetwork(0)
	server := net.NewEndpoint(identity.NewDN("Grid", "rtt", "server"), nil)
	ln, err := server.Listen("rtt")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		for i := 0; i < trips; i++ {
			msg, err := conn.Recv()
			if err == nil {
				err = conn.Send(msg)
			}
			if err != nil {
				echoed <- err
				return
			}
		}
		echoed <- nil
	}()
	conn, err := net.NewEndpoint(identity.NewDN("Grid", "rtt", "client"), nil).Dial("rtt")
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	msg := make([]byte, max(size, 1))
	start := time.Now()
	for i := 0; i < trips; i++ {
		if err := conn.Send(msg); err != nil {
			return 0, err
		}
		if _, err := conn.Recv(); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if err := <-echoed; err != nil {
		return 0, err
	}
	return elapsed / trips, nil
}
