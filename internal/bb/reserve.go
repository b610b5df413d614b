package bb

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"strings"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/envelope"
	"e2eqos/internal/obs"
	"e2eqos/internal/policysrv"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/topology"
	"e2eqos/internal/units"
)

// Route keys. The RAR id is user-signed, so the broker cannot mint
// fresh ids for re-route attempts or split children — instead the
// per-hop idempotency key salts the id with the unsigned attempt/split
// fields: a re-routed copy must not be mistaken for a retransmission
// at a domain two disjoint paths share. '~' is reserved as the
// separator (RAR ids come from NewRARID and never contain it).
//
//	RARID        ingress / primary attempt
//	RARID~a<n>   re-route attempt n
//	RARID~s<p>   split child p
//
// Cancels carry route keys in their (opaque) RARID field, so teardown
// follows the same identity the reserve created.
func routeKey(rarID string, p *signalling.ReservePayload) string {
	switch {
	case p.SplitPart > 0:
		return fmt.Sprintf("%s~s%d", rarID, p.SplitPart)
	case p.Attempt > 0:
		return fmt.Sprintf("%s~a%d", rarID, p.Attempt)
	default:
		return rarID
	}
}

// baseRARID strips the route-key salt: tunnel endpoints and edge flows
// are registered under the signed id, whatever key the hop holds.
func baseRARID(key string) string {
	if i := strings.IndexByte(key, '~'); i >= 0 {
		return key[:i]
	}
	return key
}

func (b *BB) handleReserve(peer signalling.Peer, payload *signalling.ReservePayload) *signalling.Message {
	t0 := time.Now()
	b.m.received.Inc()
	// Tracing is requester-opt-in: without a trace id no span is
	// built and the traced branches below reduce to nil checks.
	var span *obs.Span
	if payload.TraceID != "" {
		span = &obs.Span{Domain: b.cfg.Domain, BB: string(b.cfg.Key.DN)}
	}
	env, err := payload.EnvelopeFrom(peer.DN)
	if err != nil {
		b.m.denied.Inc()
		b.log.Warn("reserve: malformed envelope", obs.AttrPeer, string(peer.DN), "err", err)
		resp := signalling.ErrorResult(fmt.Sprintf("malformed envelope: %v", err))
		finishTrace(resp, span, payload.TraceID, t0)
		b.recordReserveEvent("", "", payload, resp, t0)
		return resp
	}
	now := b.cfg.Clock()
	tVerify := time.Now()
	verified, err := b.proto.Receive(env, peer.DN, peer.CertDER, now, b.transit(payload))
	verifyNS := time.Since(tVerify).Nanoseconds()
	if span != nil {
		span.VerifyNS = verifyNS
	}
	if err != nil {
		b.m.denied.Inc()
		b.log.Warn("reserve: verification failed", obs.AttrPeer, string(peer.DN),
			obs.AttrTrace, payload.TraceID, "err", err)
		resp := signalling.ErrorResult(fmt.Sprintf("verification failed: %v", err))
		finishTrace(resp, span, payload.TraceID, t0)
		b.recordReserveEvent("", "", payload, resp, t0)
		return resp
	}
	b.m.layerChecks.Add(int64(verified.Signatures))
	b.m.vouched.Add(int64(verified.Vouched))
	spec := verified.Spec

	// Flight-recorder sampling: only the ingress hop — the broker that
	// took the RAR from the user — rolls the dice, then the decision
	// rides the signalling payload so every hop below records the same
	// request (per-hop dice would compound the rate down the chain).
	// Sampled requests get a span even without requester opt-in tracing,
	// so the recorded event carries the full per-hop timeline; a request
	// the requester already traces keeps its trace id and just gains the
	// sampled bit.
	if !payload.Sampled && len(verified.Path) == 1 && b.sampler.Sample() {
		payload.Sampled = true
		if payload.TraceID == "" {
			payload.TraceID = obs.NewTraceID()
		}
	}
	if span == nil && payload.Sampled {
		span = &obs.Span{Domain: b.cfg.Domain, BB: string(b.cfg.Key.DN), VerifyNS: verifyNS}
	}

	// Duplicate route keys would corrupt cancellation state. The key is
	// the RAR id salted with the unsigned attempt/split fields, so a
	// re-routed or split copy crossing a shared domain is a fresh
	// registration while a retransmission from an upstream hop that
	// lost the response still collides. A duplicate waits out any
	// still-in-flight first copy, then replays its outcome verbatim, so
	// retries are idempotent (re-admitting would double-book, denying a
	// granted chain would strand it). The placeholder registered for
	// fresh keys is what lets a concurrent retransmission find the
	// first copy.
	key := routeKey(spec.RARID, payload)
	e, dup := b.routes.begin(key, b.mintEpoch)
	if dup {
		// The recorded outcome already carries this hop's span (and
		// everything below it), so a replay never duplicates spans.
		resp := e.replay()
		b.m.replays.Inc()
		b.log.Info("reserve: replaying recorded outcome for retransmitted RAR",
			obs.AttrRAR, spec.RARID, obs.AttrPeer, string(peer.DN), obs.AttrTrace, payload.TraceID)
		if resp != nil {
			return resp
		}
		return b.deny(spec.RARID, fmt.Sprintf("%s: duplicate RAR id %s", b.cfg.Domain, spec.RARID))
	}
	fc := forwardCtx{key: key, peer: peer, payload: payload, env: env, verified: verified, span: span}
	resp := b.processReserve(&fc, now)
	if resp.Result != nil {
		if resp.Result.Granted {
			b.m.granted.Inc()
			if len(verified.Path) == 1 {
				// This hop is the source domain: its handle time IS the
				// end-to-end grant time the user observes.
				b.m.grantSeconds.ObserveSince(t0)
			}
		} else {
			b.m.denied.Inc()
		}
	}
	b.m.handleSeconds.ObserveSince(t0)
	// Stamp the span before recording the outcome, so replays return
	// the identical trace.
	finishTrace(resp, span, payload.TraceID, t0)
	b.logReserveVerdict(spec, payload.TraceID, resp, time.Since(t0))
	b.recordReserveEvent(spec.RARID, string(spec.User), payload, resp, t0)
	b.routes.settle(e, fc.route, resp)
	// Journal the settled entry before releasing waiters, so a cancel
	// that was blocked on done always journals after this record.
	b.journalRAR(e)
	// Group commit: in a replica group the outcome is withheld until a
	// majority holds everything up to and including that record, so a
	// grant the caller ever saw survives this leader's death.
	b.replWaitCommit()
	close(e.done)
	b.maybeCheckpoint()
	return resp
}

// transit is the domain past which this hop may take a reserve's inner
// layers on its neighbour's signature (DESIGN.md §6.11): its own,
// unless its policy reads who is asking or the reserve stops here
// whatever its spec says. Receive audits every layer of a spec that
// ends in it.
func (b *BB) transit(p *signalling.ReservePayload) string {
	if b.audits || p.Mode == signalling.ModeLocal {
		return ""
	}
	return b.cfg.Domain
}

// logReserveVerdict emits the one per-reserve log record: grants at
// info, denials (which were silent before the obs layer) at warn. A
// logger that is off is asked first: building the record formats the
// bandwidth and boxes seven values.
func (b *BB) logReserveVerdict(spec *core.Spec, traceID string, resp *signalling.Message, took time.Duration) {
	if resp.Result == nil {
		return
	}
	level, msg, key, val := slog.LevelWarn, "reserve denied", "reason", resp.Result.Reason
	if resp.Result.Granted {
		level, msg, key, val = slog.LevelInfo, "reserve granted", "handle", resp.Result.Handle
	}
	if b.log.Enabled(context.Background(), level) {
		b.log.Log(context.Background(), level, msg,
			obs.AttrRAR, spec.RARID, obs.AttrTrace, traceID,
			"user", string(spec.User), "bw", spec.Bandwidth.String(),
			"dest", spec.DestDomain, key, val, "took", took)
	}
}

// forwardCtx is one reserve on its way through this hop: what arrived,
// what the local pipeline decided about it, and what its forward still
// owes downstream. handleReserve builds it, every step below takes it
// by pointer and none keeps it, so it lives on that goroutine's stack.
type forwardCtx struct {
	key      string // this hop's route key
	peer     signalling.Peer
	payload  *signalling.ReservePayload
	env      *envelope.Envelope
	verified *core.VerifiedRequest
	span     *obs.Span // nil unless the reserve is traced or sampled

	r *resv.Reservation // the local admission
	// claims is the grant the end of the line signs: its own claim in
	// slot 0, filled in by settle, then one per broker layer (claimStack).
	claims []signalling.DomainApproval

	// saga names the open saga holding what this forward owes downstream
	// ("" while it owes nothing): see owe.
	saga string
	// route is what a grant leaves in the route entry (settle fills it
	// in); empty for a denial.
	route route
}

// processReserve runs the admission pipeline for a first-seen RAR:
// upstream SLA check, policy decision, local admission, and downstream
// forwarding. The caller records the returned message as the RAR's
// replayable outcome. fc.span, non-nil only on traced reserves, collects
// where the hop's time went; the pipeline pins span.Verdict only when
// the result alone cannot distinguish the failure mode (transport error
// vs. own denial vs. rolled-back admission).
func (b *BB) processReserve(fc *forwardCtx, now time.Time) *signalling.Message {
	payload, verified, span := fc.payload, fc.verified, fc.span
	spec := verified.Spec

	// Identify the upstream entity. A single-layer chain came from the
	// user directly; otherwise the outermost signer is the upstream BB.
	fromUser := len(verified.Path) == 1
	// The multipath fields are broker-internal: the user signs the RAR
	// but never pins paths, claims re-route attempts or carries split
	// shares — those are minted hop-to-hop, under broker signatures.
	if fromUser && (len(payload.PathPin) > 0 || payload.Attempt != 0 ||
		payload.SplitPart != 0 || payload.SplitOf != 0 || payload.SplitBW != 0) {
		return b.deny(spec.RARID, fmt.Sprintf("%s: multipath fields are broker-internal", b.cfg.Domain))
	}
	// bw is what this hop admits: the signed total or, for a split
	// child, the unsigned share — which may only reduce the signed
	// bandwidth, never raise it (that is why it can ride unsigned).
	bw := spec.Bandwidth
	if payload.SplitPart != 0 || payload.SplitOf != 0 || payload.SplitBW != 0 {
		switch {
		case payload.SplitOf < 2 || payload.SplitPart < 1 || payload.SplitPart > payload.SplitOf:
			return b.deny(spec.RARID, fmt.Sprintf("%s: malformed split part %d of %d", b.cfg.Domain, payload.SplitPart, payload.SplitOf))
		case payload.SplitBW <= 0 || units.Bandwidth(payload.SplitBW) > spec.Bandwidth:
			return b.deny(spec.RARID, fmt.Sprintf("%s: split share outside the signed bandwidth", b.cfg.Domain))
		case spec.Tunnel:
			return b.deny(spec.RARID, fmt.Sprintf("%s: tunnel reservations cannot split", b.cfg.Domain))
		}
		bw = units.Bandwidth(payload.SplitBW)
	}
	// One reading of the headroom serves both the SLA check and the
	// policy query, so a concurrent admit cannot show them two states.
	avail := b.table.Available(spec.Window)
	if !fromUser {
		upBB := verified.Path[len(verified.Path)-1]
		upDomain, ok := b.cfg.Topo.DomainOfBB(upBB)
		if !ok {
			return b.deny(spec.RARID, fmt.Sprintf("%s: unknown upstream broker %s", b.cfg.Domain, upBB))
		}
		// SLA conformance: the premium aggregate entering from the
		// upstream peer must stay inside the contracted profile.
		contract := b.inbound[upDomain]
		if contract == nil {
			return b.deny(spec.RARID, fmt.Sprintf("%s: no SLA with upstream domain %s", b.cfg.Domain, upDomain))
		}
		if err := contract.Conforms(b.cfg.Capacity-avail, bw); err != nil {
			return b.deny(spec.RARID, fmt.Sprintf("%s: %v", b.cfg.Domain, err))
		}
	}

	// The end of the line lists every broker layer's claim in the grant
	// it signs, so a layer without one is refused before admission.
	end := spec.DestDomain == b.cfg.Domain || payload.Mode == signalling.ModeLocal
	if end {
		var err error
		if fc.claims, err = b.claimStack(verified); err != nil {
			return b.deny(spec.RARID, fmt.Sprintf("%s: %v", b.cfg.Domain, err))
		}
	}

	// Consult the policy server (§5): validated assertions,
	// capability-chain verification and local policy.
	q := &policysrv.Query{
		User:               spec.User,
		Bandwidth:          bw,
		Window:             spec.Window,
		Available:          avail,
		SourceDomain:       spec.SourceDomain,
		DestDomain:         spec.DestDomain,
		Assertions:         spec.Assertions,
		CapabilityChain:    verified.Capabilities,
		LinkedReservations: b.validateLinkedHandles(spec),
	}
	if len(q.CapabilityChain) > 0 {
		q.RequireRestriction = spec.RestrictionFor()
	}
	tPolicy := time.Now()
	var res policysrv.Result
	err := b.cfg.Policy.DecideInto(q, &res)
	if span != nil {
		span.PolicyNS = time.Since(tPolicy).Nanoseconds()
	}
	if err != nil {
		return b.deny(spec.RARID, fmt.Sprintf("%s: policy server: %v", b.cfg.Domain, err))
	}
	if !res.Decision.Granted() {
		return b.deny(spec.RARID, fmt.Sprintf("%s: policy denied: %s", b.cfg.Domain, res.Decision.Reason))
	}

	// Admission control against the local reservation table.
	tAdmit := time.Now()
	r, err := b.table.Admit(resv.AdmitRequest{
		User:      spec.User,
		SrcHost:   spec.SrcHost,
		DstHost:   spec.DstHost,
		Bandwidth: bw,
		Window:    spec.Window,
		Tunnel:    spec.Tunnel,
	})
	if span != nil {
		span.AdmitNS = time.Since(tAdmit).Nanoseconds()
	}
	if err != nil {
		return b.deny(spec.RARID, fmt.Sprintf("%s: admission: %v", b.cfg.Domain, err))
	}

	fc.r = r

	if end {
		return b.settle(fc, nil, nil)
	}
	resp := b.forward(fc)
	if fc.saga != "" {
		// Whatever the forward still owes downstream — a leg lost in
		// transport, the legs of a refused split — is paid from here on,
		// retried and journaled, while the answer travels upstream.
		b.sagas.Abort(fc.saga)
	}
	return resp
}

// forward sends an admitted reserve toward its destination and settles
// what comes back. One question decides how: which paths are candidates,
// in what order? A pinned copy (a re-route attempt or split leg minted
// by its ingress) has one, its pin from here on — the shortest path
// would put it right back on the path the ingress left. An ingress with
// multipath enabled owns path choice: the disjoint paths, cheapest
// first, each pinned onto its copy and salted into that copy's route key
// so a domain two paths share cannot mistake a re-route for a
// retransmission. Everyone else has the shortest path. Then one walk
// over the candidates: a grant settles, a refusal is remembered — the
// destination's ends the walk, every path converges on it — and a leg
// nobody answered for becomes a debt (owe). A walk that runs out with a
// mid-chain refusal may still place the reservation as shares (split);
// otherwise the last refusal, or the news that nobody answered, goes
// upstream.
func (b *BB) forward(fc *forwardCtx) *signalling.Message {
	spec, self := fc.verified.Spec, b.cfg.Domain
	mint := len(fc.verified.Path) == 1 && b.cfg.MaxPaths > 1
	var paths [][]string
	if pin := fc.payload.PathPin; len(pin) > 0 {
		// The pin is unsigned and proves nothing: this domain must be on
		// it, short of its end, and linked to its successor.
		at := slices.Index(pin, self)
		if at < 0 || at+1 == len(pin) {
			b.withdraw(fc, "not on pinned path")
			return b.deny(spec.RARID, fmt.Sprintf("%s: not on pinned path", self))
		}
		if _, adjacent := b.cfg.Topo.LinkBetween(self, pin[at+1]); !adjacent {
			b.withdraw(fc, "next hop not adjacent")
			return b.deny(spec.RARID, fmt.Sprintf("%s: pinned next hop %s is not a neighbour", self, pin[at+1]))
		}
		paths = [][]string{pin[at:]}
	} else {
		k := 1
		if mint {
			k = b.cfg.MaxPaths
		}
		var err error
		if paths, err = b.cfg.Topo.Paths(self, spec.DestDomain, k); err != nil {
			b.withdraw(fc, "no route")
			return b.deny(spec.RARID, fmt.Sprintf("%s: routing: %v", self, err))
		}
	}

	// refusal is the last refusal heard. Every answer send returns, this
	// one and a grant alike, is given back (signalling.Release) once the
	// hop's own outcome is built from it.
	var refusal *signalling.Message
	defer func() { signalling.Release(refusal) }()
	var lost error     // why the last leg went unanswered
	mid, tried := 0, 0 // refusals short of the destination; legs sent
	for i, path := range paths {
		nd, known := b.cfg.Topo.Domain(path[1])
		if !known {
			lost = fmt.Errorf("unknown next hop %s", path[1])
			continue
		}
		// A lone candidate is called whatever its breaker says, and
		// callPeer's check answers; with others to fall back on, an open
		// breaker passes the path over before anything is sent.
		if len(paths) > 1 {
			if wait, open := b.breakerFor(nd.BBDN).open(b.cfg.Clock()); open {
				b.m.rerouteSkips.Inc()
				b.log.Info("reserve: skipping path, first-hop breaker open",
					obs.AttrRAR, spec.RARID, obs.AttrPeer, string(nd.BBDN),
					"path", strings.Join(path, ">"), "reopens_in", wait.Round(time.Millisecond))
				continue
			}
		}
		leg, route := *fc.payload, childRoute{Next: nd.BBDN, Key: fc.key}
		if mint {
			leg.PathPin, leg.Attempt = path, i
			route.Key = routeKey(spec.RARID, &leg)
		}
		if tried++; tried > 1 {
			b.m.reroutes.Inc()
			b.log.Info("reserve: re-routing onto disjoint path",
				obs.AttrRAR, spec.RARID, "attempt", i, "path", strings.Join(path, ">"))
		}
		down, err := b.send(fc, nd, &leg, route.Key)
		if err != nil {
			// The hop below may have admitted before its answer was lost.
			b.owe(&fc.saga, "cancel", compArg{Peer: route.Next, Key: route.Key})
			lost = err
			continue
		}
		if down.Result.Granted {
			resp := b.settle(fc, []childRoute{route}, []*signalling.Message{down})
			signalling.Release(down)
			return resp
		}
		signalling.Release(refusal)
		refusal = down
		if deniedAtDest(down.Result, spec.DestDomain) {
			break
		}
		mid++
	}
	if mid > 0 && len(paths) >= 2 && b.cfg.SplitParts >= 2 && !spec.Tunnel {
		if resp := b.split(fc, paths); resp != nil {
			return resp
		}
	}
	b.withdraw(fc, "no path granted")
	if refusal != nil {
		return b.refuse(fc, refusal, "upstream of denial")
	}
	// Nobody answered: this hop's own denial, worded by how many
	// candidates there were to ask.
	reason, why := fmt.Sprintf("%s: no usable path to %s (%d disjoint, all failed)", self, spec.DestDomain, len(paths)), "no usable path"
	if len(paths) == 1 {
		reason, why = fmt.Sprintf("%s: downstream call: %v", self, lost), lost.Error()
	}
	if fc.span != nil {
		fc.span.Verdict, fc.span.Reason = obs.VerdictError, why
	}
	return b.deny(spec.RARID, reason)
}

// send forwards one leg — the reserve extended by this hop's layer,
// under the leg's pin, salt and share — and returns what the hop below
// answered, grant or refusal, a result the caller releases once it has
// built its own outcome from it (signalling.Release). An error means
// nobody knows what happened below; what to do about that is the
// caller's business.
func (b *BB) send(fc *forwardCtx, nd *topology.Domain, leg *signalling.ReservePayload, key string) (*signalling.Message, error) {
	nextCert := b.peerCerts[nd.BBDN]
	if nextCert == nil {
		return nil, fmt.Errorf("no certificate for next hop %s", nd.BBDN)
	}
	// The layer this hop signs carries its admission claim.
	extended, err := b.proto.Extend(fc.env, fc.peer.CertDER, fc.verified, nextCert, &core.Additions{Claim: fc.r.Handle})
	if err != nil {
		return nil, fmt.Errorf("extend: %w", err)
	}
	b.m.signatures.Inc()
	// Everything else of the leg rides along: the trace id and sampling
	// decision, so every hop below records a span into the same trace;
	// the pin and split fields, so every hop below computes the same
	// route key.
	fwd := leg.Forward(extended)
	b.m.forwarded.Inc()
	tDown := time.Now()
	downstream, retries, err := b.callPeer(nd.BBDN, fwd)
	// Every attempt encoded its frame from the envelope and the transport
	// copied it before the call returned: nothing reads the layer now.
	b.proto.Recycle(extended)
	b.m.downstreamSeconds.ObserveSince(tDown)
	if fc.span != nil {
		// Accumulate: a re-routing ingress forwards more than once.
		fc.span.DownstreamNS += time.Since(tDown).Nanoseconds()
		fc.span.Retries += retries
	}
	if err == nil && downstream.Result == nil {
		err = fmt.Errorf("downstream sent no result")
	}
	if err != nil {
		b.log.Error("reserve: downstream call failed",
			obs.AttrRAR, key, obs.AttrPeer, string(nd.BBDN),
			obs.AttrTrace, leg.TraceID, "retries", retries, "err", err)
		return nil, err
	}
	return downstream, nil
}

// split places the reservation as per-path legs, each carrying an
// unsigned share of the signed bandwidth; the shares sum to it exactly.
// It is the one step of forward with more than one debt outstanding at
// once, so here the debts are journaled first: the "release" of the
// local admission (compensations run newest-first, so it lands last),
// then each leg's "cancel" before that leg is sent — a crash inside the
// call window must still withdraw whatever the path admitted. All legs
// granted commits the saga and drops the debt; any refusal or loss
// leaves it open for processReserve to abort, which withdraws the legs
// forwarded so far and releases the admission. Returns nil, nothing
// owed, when fewer than two paths are usable: forward falls through to
// the ordinary denial.
func (b *BB) split(fc *forwardCtx, paths [][]string) *signalling.Message {
	spec := fc.verified.Spec
	var usable [][]string
	var hops []*topology.Domain
	for _, path := range paths {
		nd, known := b.cfg.Topo.Domain(path[1])
		if !known {
			continue
		}
		if _, open := b.breakerFor(nd.BBDN).open(b.cfg.Clock()); open {
			continue
		}
		if usable, hops = append(usable, path), append(hops, nd); len(usable) == b.cfg.SplitParts {
			break
		}
	}
	parts := len(usable)
	if parts < 2 {
		return nil
	}
	if fc.saga != "" {
		// The walk lost a leg. That debt is due whatever becomes of the
		// split, whose own saga may commit: pay it under its own.
		b.sagas.Abort(fc.saga)
		fc.saga = ""
	}
	b.owe(&fc.saga, "release", compArg{Key: fc.key, Handle: fc.r.Handle})
	b.log.Info("reserve: splitting across disjoint paths",
		obs.AttrRAR, spec.RARID, "parts", parts, "bw", spec.Bandwidth.String())

	share := int64(spec.Bandwidth) / int64(parts)
	legs := make([]childRoute, 0, parts)
	answers := make([]*signalling.Message, 0, parts)
	var refusal *signalling.Message
	defer func() { // once the outcome is built from them
		for _, down := range answers {
			signalling.Release(down)
		}
		signalling.Release(refusal)
	}()
	for p, path := range usable {
		leg := *fc.payload
		leg.PathPin, leg.SplitPart, leg.SplitOf, leg.SplitBW = path, p+1, parts, share
		if p == 0 {
			leg.SplitBW += int64(spec.Bandwidth) - share*int64(parts) // the remainder
		}
		route := childRoute{Next: hops[p].BBDN, Key: routeKey(spec.RARID, &leg), BW: leg.SplitBW}
		b.owe(&fc.saga, "cancel", compArg{Peer: route.Next, Key: route.Key})
		down, err := b.send(fc, hops[p], &leg, route.Key)
		if err != nil {
			break
		}
		if !down.Result.Granted {
			refusal = down
			break
		}
		legs, answers = append(legs, route), append(answers, down)
	}
	if len(legs) == parts {
		b.sagas.Commit(fc.saga)
		fc.saga = ""
		b.m.sagasCommitted.Inc()
		b.m.splits.Inc()
		b.log.Info("reserve: split reservation granted", obs.AttrRAR, spec.RARID, "parts", parts)
		return b.settle(fc, legs, answers)
	}
	b.m.splitFails.Inc()
	resp := b.refuse(fc, refusal, "split aborted")
	if resp.Result.Reason == "" {
		resp.Result.Reason = fmt.Sprintf("%s: split reservation aborted", b.cfg.Domain)
	}
	return resp
}

// settle turns a grant into state, the one place that does: it
// registers the tunnel end, records the route with its downstream legs —
// none at the destination or for a local-mode reservation, one on a
// single path (under the hop's own key, or the attempt-salted one if the
// ingress re-routed), one per share of a split — programs the data plane
// and assembles the granted result. A forwarding hop passes on the
// grant the legs answered with as the bytes it came in, and adopts their
// policy attributes and spans; the end of the line signs the grant, its
// own claim over every broker layer's.
func (b *BB) settle(fc *forwardCtx, legs []childRoute, answers []*signalling.Message) *signalling.Message {
	spec := fc.verified.Spec
	fromUser := len(fc.verified.Path) == 1
	if spec.Tunnel {
		// Registration comes before the grant is recorded: a RAR id that
		// collides with a live tunnel must surface as a denial, with the
		// admission released and the chain below cancelled, not silently
		// shadow the existing endpoint.
		var err error
		switch {
		case len(legs) > 0 && fromUser:
			err = b.registerTunnelSource(spec, answers[0].Result)
		case len(legs) == 0 && spec.DestDomain == b.cfg.Domain && fc.payload.Mode != signalling.ModeLocal:
			err = b.registerTunnelDest(fc.verified, fc.peer)
		}
		if err != nil {
			for _, leg := range legs {
				b.owe(&fc.saga, "cancel", compArg{Peer: leg.Next, Key: leg.Key})
			}
			b.withdraw(fc, "tunnel registration failed")
			return b.deny(spec.RARID, fmt.Sprintf("%s: tunnel registration: %v", b.cfg.Domain, err))
		}
	}
	// What a cancel needs; handleReserve settles the route entry with it.
	fc.route = route{Handle: fc.r.Handle, Tunnel: spec.Tunnel, SourceBB: fc.peer.DN, Legs: legs}
	if fromUser {
		// Source domain: program the per-flow edge marker.
		b.installEdgeFlow(spec)
	}
	b.syncDataPlane()

	resp := signalling.OKResult(fc.r.Handle)
	out := resp.Result
	out.Stack = stackOf(answers)
	for i, a := range answers {
		down := a.Result
		if i == 0 {
			out.PolicyInfo, out.Trace = down.PolicyInfo, down.Trace
			continue
		}
		out.Trace = append(out.Trace, down.Trace...)
	}
	if len(legs) == 0 {
		fc.claims[0] = signalling.DomainApproval{
			Domain: b.cfg.Domain, BBDN: b.cfg.Key.DN, RARID: spec.RARID, Handle: fc.r.Handle, Granted: true,
		}
		if err := signalling.SignGrant(fc.claims, b.cfg.Key); err == nil {
			b.m.signatures.Inc()
			out.Approvals = fc.claims
		}
	}
	return resp
}

// claimStack is the grant a reserve that ends here will carry: slot 0
// left for this domain's claim, then one claim per broker layer, the
// outermost first, as the approvals of a grant have always run
// (DESIGN.md §6.11, "Why a grant is one signature"). Each names the
// domain the topology serves by the layer's signer and that domain's
// broker, and its handle, copied out of the onion into one string: the
// grant outlives the request in the route entry. A broker layer without
// a claim, or signed by a broker no domain is served by, is an error.
func (b *BB) claimStack(v *core.VerifiedRequest) ([]signalling.DomainApproval, error) {
	if len(v.Claims) < len(v.Path)-1 {
		return nil, fmt.Errorf("layer of %s carries no admission claim", v.Path[1])
	}
	size := 0
	for i, c := range v.Claims {
		if len(c) == 0 {
			return nil, fmt.Errorf("layer of %s carries no admission claim", v.Path[i+1])
		}
		size += len(c)
	}
	var text strings.Builder
	text.Grow(size)
	for _, c := range v.Claims {
		text.Write(c)
	}
	handles := text.String()
	stack := make([]signalling.DomainApproval, len(v.Claims)+1)
	for i, c := range v.Claims {
		domain, ok := b.cfg.Topo.DomainOfBB(v.Path[i+1])
		d, known := b.cfg.Topo.Domain(domain)
		if !ok || !known {
			return nil, fmt.Errorf("claim by unknown broker %s", v.Path[i+1])
		}
		stack[len(v.Claims)-i] = signalling.DomainApproval{Domain: domain, BBDN: d.BBDN, Handle: handles[:len(c)], Granted: true}
		handles = handles[len(c):]
	}
	return stack, nil
}

// refuse carries a refusal from below upstream: its reason, its
// refusals and its trace, with this hop's signed remark on top. This
// hop did not refuse — the refusal is in a deeper span — so its own span
// says rolled back.
func (b *BB) refuse(fc *forwardCtx, answer *signalling.Message, remark string) *signalling.Message {
	resp := signalling.ErrorResult("")
	if answer != nil {
		down := answer.Result
		resp.Result.Reason = down.Reason
		resp.Result.Stack, resp.Result.Approvals = down.Stack, down.Approvals
		resp.Result.Trace = down.Trace
	}
	if a, err := b.signRefusal(fc.verified.Spec.RARID, remark); err == nil {
		resp.Result.Approvals = append(resp.Result.Approvals, a)
	}
	if fc.span != nil {
		fc.span.Verdict = obs.VerdictRolledBack
	}
	return resp
}

// withdraw releases the local admission of a reserve that will not be
// granted — synchronously, before the denial is returned — and accounts
// for it. It is the reserve path's only table.Cancel; a split's
// admission is released by its saga instead (execReleaseComp).
func (b *BB) withdraw(fc *forwardCtx, why string) {
	_ = b.table.Cancel(fc.r.Handle)
	b.m.rollbacks.Inc()
	b.log.Info("reserve: rolled back local admission",
		obs.AttrRAR, fc.verified.Spec.RARID, "handle", fc.r.Handle, "why", why)
}

// owe journals one debt as a step of the saga named in *saga — a
// "cancel" for a downstream leg whose outcome is granted or unknown, a
// split's "release" — opening the saga, and naming it, if there was none
// yet: a forward that loses nothing journals nothing. The debt is on the
// journal when owe returns. Whoever holds the name aborts the saga when
// the debts fall due (processReserve, once the forward is over); a crash
// before that is a presumed abort; either way the coordinator pays,
// saga.Attempts tries per step, abandonment counted and recorded. The
// broker's only opener of sagas.
func (b *BB) owe(saga *string, kind string, arg compArg) {
	if *saga == "" {
		name := "cancel:"
		if kind == "release" {
			name = "split:"
		}
		*saga = b.mintSagaID(name + arg.Key)
		b.m.sagasStarted.Inc()
	}
	b.sagas.Did(*saga, kind, arg.AppendBinary(nil))
}

// stackOf is the grant the legs' answers hand this hop, as the bytes
// they were answered in: a decoded result holds all of its approvals in
// its Stack, which owns its bytes (DESIGN.md §6.6, "Who owns a frame").
// One leg's is passed on as it is; a split's are joined, one statement
// per leg.
func stackOf(answers []*signalling.Message) string {
	if len(answers) == 1 {
		return answers[0].Result.Stack
	}
	var stack strings.Builder
	for _, down := range answers {
		stack.WriteString(down.Result.Stack)
	}
	return stack.String()
}

// deniedAtDest reports whether a denial came from the destination
// domain itself — its signed refusal is on the approval stack — as
// opposed to a mid-chain hop a disjoint path can route around. Every
// disjoint path converges on the destination, so its refusal is
// terminal for re-routing and splitting alike. It decodes a copy of the
// stack, a refusal being passed on as it came; the stack decodes, as the
// result's decode walked every approval in it.
func deniedAtDest(res *signalling.ResultPayload, dest string) bool {
	approvals, _ := res.DecodedApprovals()
	for _, a := range approvals {
		if a.Domain == dest && !a.Granted {
			return true
		}
	}
	return false
}

// validateLinkedHandles reports which of the spec's co-reservation
// links count here (Figure 6's HasValidCPUResv(RAR)): those naming a
// local pool that the handle there covers for the requester and the
// whole window. Nil when none does.
func (b *BB) validateLinkedHandles(spec *core.Spec) map[string]bool {
	var out map[string]bool
	for name, handle := range spec.LinkedHandles {
		if pool := b.cfg.Pools[name]; pool != nil && pool.Covers(handle, spec.User, spec.Window) {
			if out == nil {
				out = make(map[string]bool, len(spec.LinkedHandles))
			}
			out[name] = true
		}
	}
	return out
}
