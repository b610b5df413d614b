package bb

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/policysrv"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/topology"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
)

// tunnelRegistry wraps the tunnel package registry and keeps the batch
// replay cache: per-batch outcomes keyed (tunnel RAR, batch id), with
// the same in-flight dedup scheme the RAR cache uses — a concurrent
// retransmission finds the first copy's placeholder and waits for its
// done channel instead of re-applying ops.
type tunnelRegistry struct {
	reg *tunnel.Registry

	mu      sync.Mutex
	batches map[string]*batchState
}

// batchState is one batch's replay-cache entry.
type batchState struct {
	// done is closed once the batch has been applied and its outcome
	// recorded; duplicates arriving mid-flight wait on it.
	done chan struct{}
	// outcome is replayed verbatim on retransmission.
	outcome *signalling.Message
	// epoch pins the entry to a specific registration of the tunnel
	// RAR id, so snapshots and teardown can tell stale entries apart.
	epoch int64
	rarID string
	id    string
}

func batchKey(rarID, batchID string) string { return rarID + "\x00" + batchID }

func newTunnelRegistry() *tunnelRegistry {
	return &tunnelRegistry{reg: tunnel.NewRegistry(), batches: make(map[string]*batchState)}
}

// begin registers a batch placeholder, or returns the existing entry
// with dup=true.
func (t *tunnelRegistry) begin(rarID, batchID string, epoch int64) (st *batchState, dup bool) {
	key := batchKey(rarID, batchID)
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.batches[key]; ok {
		return st, true
	}
	st = &batchState{done: make(chan struct{}), epoch: epoch, rarID: rarID, id: batchID}
	t.batches[key] = st
	return st, false
}

// record stores a batch's outcome ahead of the journal append that
// carries it, as a reserve stores its own: a snapshot cut between the
// append and the settle reflects the batch's ops, and a follower
// installing it never gets the record itself, so the replay entry has
// to be in that snapshot too. Duplicates still wait for done.
func (t *tunnelRegistry) record(st *batchState, outcome *signalling.Message) {
	t.mu.Lock()
	st.outcome = outcome
	t.mu.Unlock()
}

// outcomeOf reads a settled outcome (nil while in flight).
func (t *tunnelRegistry) outcomeOf(st *batchState) *signalling.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	return st.outcome
}

// restoreBatch repopulates a replay-cache entry during journal
// recovery; done comes pre-closed because the batch settled in a
// previous life.
func (t *tunnelRegistry) restoreBatch(rarID string, epoch int64, batchID string, outcome *signalling.Message) {
	done := make(chan struct{})
	close(done)
	t.mu.Lock()
	t.batches[batchKey(rarID, batchID)] = &batchState{
		done: done, outcome: outcome, epoch: epoch, rarID: rarID, id: batchID,
	}
	t.mu.Unlock()
}

// dropBatches evicts replay-cache entries for a torn-down tunnel
// registration (matching epoch only — a re-established tunnel keeps
// its own batches).
func (t *tunnelRegistry) dropBatches(rarID string, epoch int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, st := range t.batches {
		if st.rarID == rarID && st.epoch == epoch {
			delete(t.batches, k)
		}
	}
}

// resetBatches replaces the whole replay cache with a snapshot's
// settled entries — a replication follower installing a leader
// snapshot. In-flight entries are discarded with it: a follower never
// has batches of its own in flight.
func (t *tunnelRegistry) resetBatches(snaps []tunnelBatchSnap) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.batches = make(map[string]*batchState, len(snaps))
	for _, bs := range snaps {
		done := make(chan struct{})
		close(done)
		t.batches[batchKey(bs.RARID, bs.BatchID)] = &batchState{
			done: done, outcome: bs.Outcome, epoch: bs.Epoch, rarID: bs.RARID, id: bs.BatchID,
		}
	}
}

// settledBatches snapshots the replay cache for journal rotation,
// sorted for deterministic bytes. In-flight entries are skipped: they
// journal themselves when they settle, after the rotation completes.
func (t *tunnelRegistry) settledBatches() []tunnelBatchSnap {
	t.mu.Lock()
	out := make([]tunnelBatchSnap, 0, len(t.batches))
	for _, st := range t.batches {
		if st.outcome == nil {
			continue
		}
		out = append(out, tunnelBatchSnap{RARID: st.rarID, Epoch: st.epoch, BatchID: st.id, Outcome: st.outcome})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].RARID != out[j].RARID {
			return out[i].RARID < out[j].RARID
		}
		return out[i].BatchID < out[j].BatchID
	})
	return out
}

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

// maxPaths / splitParts resolve the multipath knobs (<=1 / <2 disable).
func (b *BB) maxPaths() int {
	if b.cfg.MaxPaths > 1 {
		return b.cfg.MaxPaths
	}
	return 1
}

func (b *BB) splitParts() int {
	if b.cfg.SplitParts >= 2 {
		return b.cfg.SplitParts
	}
	return 0
}

// Handle implements signalling.Handler: the broker's message dispatch.
// On a replica-group follower every mutating message redirects to the
// leader; status reads and replication traffic are served locally.
func (b *BB) Handle(peer signalling.Peer, msg *signalling.Message) *signalling.Message {
	if b.repl.isFollower() {
		switch msg.Type {
		case signalling.MsgReserve, signalling.MsgCancel, signalling.MsgTunnelAlloc,
			signalling.MsgTunnelRelease, signalling.MsgTunnelBatch:
			return b.redirect()
		}
	}
	switch msg.Type {
	case signalling.MsgReserve:
		if msg.Reserve == nil {
			return signalling.ErrorResult("reserve message without payload")
		}
		return b.handleReserve(peer, msg.Reserve)
	case signalling.MsgCancel:
		if msg.Cancel == nil {
			return signalling.ErrorResult("cancel message without payload")
		}
		return b.handleCancel(peer, msg.Cancel)
	case signalling.MsgTunnelAlloc:
		if msg.TunnelAlloc == nil {
			return signalling.ErrorResult("tunnel-alloc message without payload")
		}
		return b.handleTunnelAlloc(peer, msg.TunnelAlloc)
	case signalling.MsgTunnelRelease:
		if msg.TunnelRelease == nil {
			return signalling.ErrorResult("tunnel-release message without payload")
		}
		return b.handleTunnelRelease(peer, msg.TunnelRelease)
	case signalling.MsgTunnelBatch:
		if msg.TunnelBatch == nil {
			return signalling.ErrorResult("tunnel-batch message without payload")
		}
		return b.handleTunnelBatch(peer, msg.TunnelBatch)
	case signalling.MsgStatus:
		if msg.Status == nil {
			return signalling.ErrorResult("status message without payload")
		}
		return b.handleStatus(msg.Status)
	case signalling.MsgJournalStream:
		if msg.JournalStream == nil {
			return signalling.ErrorResult("journal-stream message without payload")
		}
		return b.handleJournalStream(peer, msg.JournalStream)
	default:
		return signalling.ErrorResult(fmt.Sprintf("unsupported message type %q", msg.Type))
	}
}

// deny builds a denied result carrying this domain's signed refusal,
// implementing "Whenever a request is denied by one domain, the event
// is propagated upstream to inform the user of the reason for the
// denial."
func (b *BB) deny(rarID, reason string) *signalling.Message {
	resp := signalling.ErrorResult(reason)
	if a, err := b.signApproval(rarID, "", false, reason); err == nil {
		resp.Result.Approvals = []signalling.DomainApproval{a}
	}
	return resp
}

// finishTrace stamps this hop's span onto the response of a traced
// reserve: total time, verdict (derived from the result unless the
// processing already pinned one), and the trace id echo. Spans from
// hops below are already in the result; this hop's span goes on top,
// mirroring how approvals stack on the return path.
func finishTrace(resp *signalling.Message, span *obs.Span, traceID string, t0 time.Time) {
	if span == nil || resp == nil || resp.Result == nil {
		return
	}
	span.TotalNS = time.Since(t0).Nanoseconds()
	if span.Verdict == "" {
		if resp.Result.Granted {
			span.Verdict = obs.VerdictGranted
		} else {
			span.Verdict = obs.VerdictDenied
			span.Reason = resp.Result.Reason
		}
	}
	resp.Result.TraceID = traceID
	resp.Result.Trace = append(resp.Result.Trace, *span)
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
	env, err := payload.Envelope()
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
	verified, err := b.proto.Verify(env, peer.DN, peer.CertDER, now)
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
	b.mu.Lock()
	st, dup := b.routes[key]
	if !dup {
		b.rarEpoch++
		st = &rarState{spec: spec, done: make(chan struct{}), epoch: b.rarEpoch}
		b.routes[key] = st
	}
	b.mu.Unlock()
	if dup {
		if st.done != nil {
			<-st.done
		}
		b.mu.Lock()
		outcome := st.outcome
		b.mu.Unlock()
		b.m.replays.Inc()
		b.log.Info("reserve: replaying recorded outcome for retransmitted RAR",
			obs.AttrRAR, spec.RARID, obs.AttrPeer, string(peer.DN), obs.AttrTrace, payload.TraceID)
		if outcome != nil {
			// The recorded outcome already carries this hop's span (and
			// everything below it), so a replay never duplicates spans.
			resp := *outcome // shallow copy: Serve stamps the per-call ID
			return &resp
		}
		return b.deny(spec.RARID, fmt.Sprintf("%s: duplicate RAR id %s", b.cfg.Domain, spec.RARID))
	}
	resp := b.processReserve(key, peer, payload, env, verified, now, span)
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
	b.mu.Lock()
	st.outcome = resp
	b.mu.Unlock()
	// Journal the settled entry before releasing waiters, so a cancel
	// that was blocked on done always journals after this record.
	b.journalRAR(key, st)
	// Group commit: in a replica group the outcome is withheld until a
	// majority holds everything up to and including that record, so a
	// grant the caller ever saw survives this leader's death.
	b.replWaitCommit()
	close(st.done)
	b.maybeCheckpoint()
	return resp
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

// rollback cancels an optimistic local admission that must not
// survive (downstream denial, transport failure, encode error) and
// accounts for it.
func (b *BB) rollback(handle, rarID, why string) {
	_ = b.table.Cancel(handle)
	b.m.rollbacks.Inc()
	b.log.Info("reserve: rolled back local admission",
		obs.AttrRAR, rarID, "handle", handle, "why", why)
}

// processReserve runs the admission pipeline for a first-seen RAR:
// upstream SLA check, policy decision, local admission, and downstream
// forwarding. The caller records the returned message as the RAR's
// replayable outcome. span, non-nil only on traced reserves, collects
// where the hop's time went; processReserve pins span.Verdict only
// when the result alone cannot distinguish the failure mode (transport
// error vs. own denial vs. rolled-back admission).
func (b *BB) processReserve(key string, peer signalling.Peer, payload *signalling.ReservePayload, env *envelope.Envelope, verified *core.VerifiedRequest, now time.Time, span *obs.Span) *signalling.Message {
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
		upDomain, ok := b.domainOfBB(upBB)
		if !ok {
			return b.deny(spec.RARID, fmt.Sprintf("%s: unknown upstream broker %s", b.cfg.Domain, upBB))
		}
		// SLA conformance: the premium aggregate entering from the
		// upstream peer must stay inside the contracted profile.
		contract := b.cfg.InboundSLAs[upDomain]
		if contract == nil {
			return b.deny(spec.RARID, fmt.Sprintf("%s: no SLA with upstream domain %s", b.cfg.Domain, upDomain))
		}
		if !contract.Valid(now) {
			return b.deny(spec.RARID, fmt.Sprintf("%s: SLA with %s not valid", b.cfg.Domain, upDomain))
		}
		if err := contract.Conforms(b.cfg.Capacity-avail, bw); err != nil {
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
		RequireRestriction: spec.RestrictionFor(),
		LinkedReservations: b.validateLinkedHandles(spec),
	}
	tPolicy := time.Now()
	res, err := b.cfg.Policy.Decide(q)
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

	isDest := spec.DestDomain == b.cfg.Domain
	local := payload.Mode == signalling.ModeLocal

	if isDest || local {
		return b.finishGrant(key, peer, verified, r, fromUser, isDest && !local)
	}
	// A forwarding hop: its own approval is signed while downstream
	// works, once, whatever paths and split children the forward tries.
	grant := b.presignGrant(spec.RARID, r.Handle)

	// Forward downstream. A pinned payload (a re-route attempt or split
	// child minted by the ingress) follows its pin — NextHop would put
	// the copy right back on the broken primary path. The ingress, with
	// multipath enabled, owns path choice; everyone else forwards
	// hop-by-hop along the shortest path as before.
	if len(payload.PathPin) > 0 {
		next, ok := pinnedNext(payload.PathPin, b.cfg.Domain)
		if !ok {
			b.rollback(r.Handle, spec.RARID, "not on pinned path")
			return b.deny(spec.RARID, fmt.Sprintf("%s: not on pinned path", b.cfg.Domain))
		}
		return b.forwardVia(key, next, peer, payload, env, verified, res, r, grant, span)
	}
	if fromUser && b.maxPaths() > 1 {
		return b.forwardMultipath(key, peer, payload, env, verified, res, r, grant, span)
	}
	nextDomain, err := b.cfg.Topo.NextHop(b.cfg.Domain, spec.DestDomain)
	if err != nil {
		b.rollback(r.Handle, spec.RARID, "no route")
		return b.deny(spec.RARID, fmt.Sprintf("%s: routing: %v", b.cfg.Domain, err))
	}
	return b.forwardVia(key, nextDomain, peer, payload, env, verified, res, r, grant, span)
}

// pinnedNext finds the successor of domain on a pinned path.
func pinnedNext(pin []string, domain string) (string, bool) {
	for i, d := range pin {
		if d == domain && i+1 < len(pin) {
			return pin[i+1], true
		}
	}
	return "", false
}

// forwardChild performs one downstream forward of the (possibly
// pinned, possibly split) payload and settles the transport layer: on
// a transport failure or a result-less response it fires the
// journaled rollback cancel for the child key — the hop below may
// have admitted before the response was lost — and returns an error;
// otherwise the downstream result, grant or denial, comes back as is.
// The caller owns the local admission either way.
func (b *BB) forwardChild(childKey string, nd *topology.Domain, peer signalling.Peer, payload *signalling.ReservePayload, env *envelope.Envelope, verified *core.VerifiedRequest, res *policysrv.Result, span *obs.Span) (*signalling.Message, error) {
	nextCert := b.cfg.PeerCerts[nd.BBDN]
	if nextCert == nil {
		return nil, fmt.Errorf("no certificate for next hop %s", nd.BBDN)
	}
	extended, err := b.proto.Extend(env, peer.CertDER, verified, nextCert, res.Additions)
	if err != nil {
		return nil, fmt.Errorf("extend: %w", err)
	}
	fwd, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, extended)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	// The trace id and sampling decision ride the whole chain so every
	// hop below records a span into the same trace; the pin and split
	// fields ride it so every hop below computes the same route key.
	fwd.Reserve.TraceID = payload.TraceID
	fwd.Reserve.Sampled = payload.Sampled
	fwd.Reserve.PathPin = payload.PathPin
	fwd.Reserve.Attempt = payload.Attempt
	fwd.Reserve.SplitPart = payload.SplitPart
	fwd.Reserve.SplitOf = payload.SplitOf
	fwd.Reserve.SplitBW = payload.SplitBW
	b.m.forwarded.Inc()
	tDown := time.Now()
	downstream, retries, err := b.callPeer(nd.BBDN, fwd)
	b.m.downstreamSeconds.ObserveSince(tDown)
	if span != nil {
		// Accumulate: a re-routing ingress forwards more than once.
		span.DownstreamNS += time.Since(tDown).Nanoseconds()
		span.Retries += retries
	}
	if err == nil && downstream.Result == nil {
		err = fmt.Errorf("downstream sent no result")
	}
	if err != nil {
		b.cancelDownstream(nd.BBDN, childKey)
		b.log.Error("reserve: downstream call failed",
			obs.AttrRAR, childKey, obs.AttrPeer, string(nd.BBDN),
			obs.AttrTrace, payload.TraceID, "retries", retries, "err", err)
		return nil, err
	}
	return downstream, nil
}

// forwardVia forwards to one named next hop and settles the outcome —
// the single-path case: legacy hop-by-hop forwarding and mid-chain
// hops of a pinned path. Transport failure or denial rolls back the
// local admission and propagates; a grant records the route.
func (b *BB) forwardVia(key, nextDomain string, peer signalling.Peer, payload *signalling.ReservePayload, env *envelope.Envelope, verified *core.VerifiedRequest, res *policysrv.Result, r *resv.Reservation, grant *grantApproval, span *obs.Span) *signalling.Message {
	spec := verified.Spec
	nd, ok := b.cfg.Topo.Domain(nextDomain)
	if !ok {
		b.rollback(r.Handle, spec.RARID, "unknown next hop")
		return b.deny(spec.RARID, fmt.Sprintf("%s: unknown next hop %s", b.cfg.Domain, nextDomain))
	}
	if _, adjacent := b.cfg.Topo.LinkBetween(b.cfg.Domain, nextDomain); !adjacent {
		b.rollback(r.Handle, spec.RARID, "next hop not adjacent")
		return b.deny(spec.RARID, fmt.Sprintf("%s: pinned next hop %s is not a neighbour", b.cfg.Domain, nextDomain))
	}
	downstream, err := b.forwardChild(key, nd, peer, payload, env, verified, res, span)
	if err != nil {
		// Roll back the optimistic local admission; forwardChild already
		// scheduled the downstream cancel for the unknown-outcome case.
		b.rollback(r.Handle, spec.RARID, "downstream call failed")
		if span != nil {
			span.Verdict = obs.VerdictError
			span.Reason = err.Error()
		}
		return b.deny(spec.RARID, fmt.Sprintf("%s: downstream call: %v", b.cfg.Domain, err))
	}
	if !downstream.Result.Granted {
		// Roll back the optimistic local admission and propagate the
		// denial (with the downstream approvals/reasons) upstream.
		b.rollback(r.Handle, spec.RARID, "downstream denied")
		resp := signalling.ErrorResult(downstream.Result.Reason)
		resp.Result.Approvals = adoptApprovals(downstream.Result.Approvals)
		resp.Result.Trace = downstream.Result.Trace
		if a, err := b.signApproval(spec.RARID, "", false, "upstream of denial"); err == nil {
			resp.Result.Approvals = append(resp.Result.Approvals, a)
		}
		if span != nil {
			// This hop did not refuse; the refusal is in a deeper span.
			span.Verdict = obs.VerdictRolledBack
		}
		return resp
	}
	return b.settleGrant(key, key, nd.BBDN, peer, verified, r, grant, downstream)
}

// adoptApprovals takes the approvals of a downstream result into this
// hop's own, leaving room for the hop's approval on top. The result goes
// to the caller and into the route entry as the replayable outcome, which
// outlives the frame downstream answered in: each signature, a sub-slice
// of that frame, gets bytes of its own. The strings are cut from the one
// string the decoder made of that frame; it holds little besides them,
// so the outcome keeps it whole (DESIGN.md §6.6, "Who owns a frame").
func adoptApprovals(down []signalling.DomainApproval) []signalling.DomainApproval {
	out := append(make([]signalling.DomainApproval, 0, len(down)+1), down...)
	for i := range out {
		out[i].Signature = bytes.Clone(out[i].Signature)
	}
	return out
}

// deniedAtDest reports whether a denial came from the destination
// domain itself — its signed refusal is on the approval stack — as
// opposed to a mid-chain hop a disjoint path can route around. Every
// disjoint path converges on the destination, so its refusal is
// terminal for re-routing and splitting alike.
func deniedAtDest(res *signalling.ResultPayload, dest string) bool {
	for _, a := range res.Approvals {
		if a.Domain == dest && !a.Granted {
			return true
		}
	}
	return false
}

// forwardMultipath is the ingress forwarding strategy once
// Config.MaxPaths enables re-route: try each disjoint path in cost
// order — skipping paths whose first-hop breaker is already open,
// pinning the chosen path onto the forwarded copy, salting the route
// key per attempt so a shared downstream domain cannot mistake a
// re-route for a retransmission — and, when no single path grants the
// full bandwidth because of a mid-chain refusal, fall back to
// splitting the reservation across paths.
func (b *BB) forwardMultipath(key string, peer signalling.Peer, payload *signalling.ReservePayload, env *envelope.Envelope, verified *core.VerifiedRequest, res *policysrv.Result, r *resv.Reservation, grant *grantApproval, span *obs.Span) *signalling.Message {
	spec := verified.Spec
	paths, err := b.cfg.Topo.Paths(b.cfg.Domain, spec.DestDomain, b.maxPaths())
	if err != nil {
		b.rollback(r.Handle, spec.RARID, "no route")
		return b.deny(spec.RARID, fmt.Sprintf("%s: routing: %v", b.cfg.Domain, err))
	}
	var lastDenial *signalling.ResultPayload
	midDenials := 0
	attempted := 0
	for i, path := range paths {
		nd, ok := b.cfg.Topo.Domain(path[1])
		if !ok {
			continue
		}
		if wait, open := b.breakerFor(nd.BBDN).open(b.cfg.Clock()); open {
			b.m.rerouteSkips.Inc()
			b.log.Info("reserve: skipping path, first-hop breaker open",
				obs.AttrRAR, spec.RARID, obs.AttrPeer, string(nd.BBDN),
				"path", strings.Join(path, ">"), "reopens_in", wait.Round(time.Millisecond))
			continue
		}
		child := *payload
		child.PathPin = path
		child.Attempt = i
		childKey := routeKey(spec.RARID, &child)
		if attempted > 0 {
			b.m.reroutes.Inc()
			b.log.Info("reserve: re-routing onto disjoint path",
				obs.AttrRAR, spec.RARID, "attempt", i, "path", strings.Join(path, ">"))
		}
		attempted++
		downstream, err := b.forwardChild(childKey, nd, peer, &child, env, verified, res, span)
		if err != nil {
			continue // transport failure; the rollback cancel is scheduled
		}
		if downstream.Result.Granted {
			return b.settleGrant(key, childKey, nd.BBDN, peer, verified, r, grant, downstream)
		}
		lastDenial = downstream.Result
		if deniedAtDest(downstream.Result, spec.DestDomain) {
			break
		}
		midDenials++
	}
	if midDenials > 0 && b.splitParts() > 0 && len(paths) >= 2 && !spec.Tunnel {
		if resp := b.splitAcross(key, peer, payload, env, verified, res, r, grant, paths, span); resp != nil {
			return resp
		}
	}
	b.rollback(r.Handle, spec.RARID, "no path granted")
	if lastDenial != nil {
		resp := signalling.ErrorResult(lastDenial.Reason)
		resp.Result.Approvals = adoptApprovals(lastDenial.Approvals)
		resp.Result.Trace = lastDenial.Trace
		if a, err := b.signApproval(spec.RARID, "", false, "upstream of denial"); err == nil {
			resp.Result.Approvals = append(resp.Result.Approvals, a)
		}
		if span != nil {
			span.Verdict = obs.VerdictRolledBack
		}
		return resp
	}
	if span != nil {
		span.Verdict = obs.VerdictError
		span.Reason = "no usable path"
	}
	return b.deny(spec.RARID, fmt.Sprintf("%s: no usable path to %s (%d disjoint, all failed)", b.cfg.Domain, spec.DestDomain, len(paths)))
}

// splitAcross places the reservation as per-path children, each
// carrying an unsigned share of the signed bandwidth; the shares sum
// to it exactly. The children settle atomically through a saga: the
// "release" compensation for the local admission is journaled first
// (compensations run newest-first, so it lands last), each child's
// "cancel" debt is journaled before its forward — a crash inside the
// call window must still withdraw whatever that path admitted. All
// children granted commits the saga and drops the debt; any refusal
// aborts, and the compensations withdraw the granted siblings and
// release the local admission (the caller must then NOT rollback
// again). Returns nil when fewer than two paths were usable — the
// caller falls through to the ordinary denial.
func (b *BB) splitAcross(key string, peer signalling.Peer, payload *signalling.ReservePayload, env *envelope.Envelope, verified *core.VerifiedRequest, res *policysrv.Result, r *resv.Reservation, grant *grantApproval, paths [][]string, span *obs.Span) *signalling.Message {
	spec := verified.Spec
	parts := b.splitParts()
	usable := make([][]string, 0, parts)
	nds := make([]*topology.Domain, 0, parts)
	for _, path := range paths {
		nd, ok := b.cfg.Topo.Domain(path[1])
		if !ok {
			continue
		}
		if _, open := b.breakerFor(nd.BBDN).open(b.cfg.Clock()); open {
			continue
		}
		usable = append(usable, path)
		nds = append(nds, nd)
		if len(usable) == parts {
			break
		}
	}
	if len(usable) < 2 {
		return nil
	}
	parts = len(usable)
	total := int64(spec.Bandwidth)
	share := total / int64(parts)
	shares := make([]int64, parts)
	for p := range shares {
		shares[p] = share
	}
	shares[0] += total - share*int64(parts)

	sagaID := b.mintSagaID("split:" + key)
	b.m.sagasStarted.Inc()
	if err := b.sagas.Begin(sagaID); err != nil {
		return nil
	}
	_ = b.sagas.Did(sagaID, "release", compArg{Key: key, Handle: r.Handle}.AppendBinary(nil))
	b.log.Info("reserve: splitting across disjoint paths",
		obs.AttrRAR, spec.RARID, "parts", parts, "bw", spec.Bandwidth.String())

	children := make([]childRoute, 0, parts)
	var approvals []signalling.DomainApproval
	var trace []obs.Span
	policyInfo := map[string]string{}
	var failure *signalling.ResultPayload
	for p := 0; p < parts; p++ {
		child := *payload
		child.PathPin = usable[p]
		child.SplitPart = p + 1
		child.SplitOf = parts
		child.SplitBW = shares[p]
		childKey := routeKey(spec.RARID, &child)
		_ = b.sagas.Did(sagaID, "cancel", compArg{Peer: nds[p].BBDN, Key: childKey}.AppendBinary(nil))
		downstream, err := b.forwardChild(childKey, nds[p], peer, &child, env, verified, res, span)
		if err != nil {
			break
		}
		if !downstream.Result.Granted {
			failure = downstream.Result
			break
		}
		children = append(children, childRoute{Next: nds[p].BBDN, Key: childKey, BW: shares[p]})
		approvals = append(approvals, adoptApprovals(downstream.Result.Approvals)...)
		trace = append(trace, downstream.Result.Trace...)
		for k, v := range downstream.Result.PolicyInfo {
			policyInfo[k] = v
		}
	}
	if len(children) == parts {
		b.sagas.Commit(sagaID)
		b.m.sagasCommitted.Inc()
		b.m.splits.Inc()
		b.recordRoute(key, spec, r.Handle, "", "", children, peer)
		b.installEdgeFlow(spec)
		b.syncDataPlane()
		b.log.Info("reserve: split reservation granted",
			obs.AttrRAR, spec.RARID, "parts", parts)
		resp := &signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{
			Granted:    true,
			Handle:     r.Handle,
			Approvals:  approvals,
			PolicyInfo: policyInfo,
			Trace:      trace,
		}}
		if a, err := grant.wait(); err == nil {
			resp.Result.Approvals = append(resp.Result.Approvals, a)
		}
		return resp
	}
	// Partial failure: abort — the compensations withdraw every child
	// forwarded so far (granted or unknown) and release the local
	// admission, so no b.rollback here.
	b.m.splitFails.Inc()
	b.sagas.Abort(sagaID)
	reason := fmt.Sprintf("%s: split reservation aborted", b.cfg.Domain)
	if failure != nil && failure.Reason != "" {
		reason = failure.Reason
	}
	resp := signalling.ErrorResult(reason)
	if failure != nil {
		resp.Result.Approvals = adoptApprovals(failure.Approvals)
		resp.Result.Trace = failure.Trace
	}
	if a, err := b.signApproval(spec.RARID, "", false, "split aborted"); err == nil {
		resp.Result.Approvals = append(resp.Result.Approvals, a)
	}
	if span != nil {
		span.Verdict = obs.VerdictRolledBack
	}
	return resp
}

// settleGrant records a forwarded grant: tunnel registration, route
// state — downKey is the route key the downstream leg runs under,
// which differs from the hop's own key when the ingress re-routed —
// the data plane, and this domain's approval — signed while downstream
// worked, collected here now that downstream has granted — stacked on
// top of the downstream ones.
func (b *BB) settleGrant(key, downKey string, next identity.DN, peer signalling.Peer, verified *core.VerifiedRequest, r *resv.Reservation, grant *grantApproval, downstream *signalling.Message) *signalling.Message {
	spec := verified.Spec
	fromUser := len(verified.Path) == 1
	// Tunnel registration happens before the grant is recorded: a RAR
	// id colliding with a live tunnel must surface as a denial (with the
	// admission rolled back and the downstream chain cancelled), not
	// silently shadow the existing endpoint.
	if fromUser && spec.Tunnel {
		if err := b.registerTunnelSource(spec, downstream.Result); err != nil {
			b.rollback(r.Handle, spec.RARID, "tunnel registration failed")
			b.cancelDownstream(next, downKey)
			return b.deny(spec.RARID, fmt.Sprintf("%s: tunnel registration: %v", b.cfg.Domain, err))
		}
	}
	b.recordRoute(key, spec, r.Handle, next, downKey, nil, peer)
	if fromUser {
		// Source domain: program the per-flow edge marker.
		b.installEdgeFlow(spec)
	}
	b.syncDataPlane()
	resp := &signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{
		Granted:    true,
		Handle:     r.Handle,
		Approvals:  adoptApprovals(downstream.Result.Approvals),
		PolicyInfo: downstream.Result.PolicyInfo,
		Trace:      downstream.Result.Trace,
	}}
	if a, err := grant.wait(); err == nil {
		resp.Result.Approvals = append(resp.Result.Approvals, a)
	}
	return resp
}

// finishGrant completes a grant at the destination domain (or a
// local-mode reservation).
func (b *BB) finishGrant(key string, peer signalling.Peer, verified *core.VerifiedRequest, r *resv.Reservation, fromUser, isDest bool) *signalling.Message {
	spec := verified.Spec
	if isDest && spec.Tunnel {
		// Register before granting: a duplicate tunnel RAR id is a
		// denial, not a silent shadow of the live endpoint.
		if err := b.registerTunnelDest(verified, peer); err != nil {
			b.rollback(r.Handle, spec.RARID, "tunnel registration failed")
			return b.deny(spec.RARID, fmt.Sprintf("%s: tunnel registration: %v", b.cfg.Domain, err))
		}
	}
	b.recordRoute(key, spec, r.Handle, "", "", nil, peer)
	if fromUser {
		b.installEdgeFlow(spec)
	}
	b.syncDataPlane()
	resp := signalling.OKResult(r.Handle)
	if a, err := b.signApproval(spec.RARID, r.Handle, true, ""); err == nil {
		resp.Result.Approvals = []signalling.DomainApproval{a}
	}
	return resp
}

// recordRoute fills in the route entry's in-flight placeholder for
// cancellation and tunnel use. The entry itself was registered under
// its route key when the reserve arrived, so retransmissions and
// cancels can find it.
func (b *BB) recordRoute(key string, spec *core.Spec, handle string, next identity.DN, downKey string, children []childRoute, peer signalling.Peer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.routes[key]
	if !ok {
		return
	}
	st.handle = handle
	st.next = next
	st.tunnel = spec.Tunnel
	st.sourceBB = peer.DN
	st.spec = spec
	st.downKey = downKey
	st.children = children
}

// validateLinkedHandles checks the co-reservation references against
// the local resource managers (destination-domain semantics of
// Figure 6: HasValidCPUResv(RAR)).
func (b *BB) validateLinkedHandles(spec *core.Spec) map[string]bool {
	out := make(map[string]bool)
	for resource, handle := range spec.LinkedHandles {
		switch resource {
		case "cpu":
			if b.cfg.CPU != nil && b.cfg.CPU.ValidDuring(handle, spec.Window) {
				out["cpu"] = true
			}
		case "disk":
			if b.cfg.Disk != nil && b.cfg.Disk.Valid(handle, spec.Window.Start) {
				out["disk"] = true
			}
		}
	}
	return out
}

func (b *BB) handleCancel(peer signalling.Peer, payload *signalling.CancelPayload) *signalling.Message {
	b.m.cancels.Inc()
	b.mu.Lock()
	st, ok := b.routes[payload.RARID]
	b.mu.Unlock()
	if !ok {
		return signalling.ErrorResult(fmt.Sprintf("%s: unknown RAR %s", b.cfg.Domain, payload.RARID))
	}
	// If the reserve that created this entry is still in flight (an
	// upstream hop gave up on it and is now cancelling), wait for it to
	// settle so its admission — and its recorded downstream hop — are
	// visible to cancel.
	if st.done != nil {
		<-st.done
	}
	b.mu.Lock()
	if cur, still := b.routes[payload.RARID]; !still || cur != st {
		b.mu.Unlock()
		return signalling.ErrorResult(fmt.Sprintf("%s: unknown RAR %s", b.cfg.Domain, payload.RARID))
	}
	delete(b.routes, payload.RARID)
	b.mu.Unlock()
	// Journal the route removal even if the table cancel below fails:
	// the entry is gone from the live map either way, and a recovered
	// broker must agree.
	b.journalRARCancel(payload.RARID, st.epoch)
	// Tear the tunnel endpoint down before the table cancel can bail
	// out: the route entry is already gone, and a stale endpoint left
	// behind would collide with a re-establishment of the same RAR id.
	// Tunnels and edge flows live under the signed RAR id, whatever
	// route-key salt this hop holds.
	base := baseRARID(payload.RARID)
	if ep, live := b.tunnels.reg.Get(base); live {
		b.tunnels.reg.Remove(base)
		b.tunnels.dropBatches(base, ep.Epoch)
		b.journalTunnelRemove(base, ep.Epoch)
	}
	b.removeEdgeFlow(base)
	if err := b.table.Cancel(st.handle); err != nil {
		return signalling.ErrorResult(fmt.Sprintf("%s: %v", b.cfg.Domain, err))
	}
	b.syncDataPlane()
	// Propagate downstream along the recorded path (best effort, under
	// the call deadline: a dead hop must not wedge the cancel chain).
	// If the synchronous attempt fails, hand the cancel to the
	// persistent async path so hops below the failure don't stay booked.
	// A split ingress fans out to every child leg under that leg's own
	// route key; a re-routed ingress propagates the key the surviving
	// attempt ran under (downKey), not its own.
	for _, c := range st.children {
		if _, _, err := b.callPeer(c.Next, &signalling.Message{
			Type:   signalling.MsgCancel,
			Cancel: &signalling.CancelPayload{RARID: c.Key},
		}); err != nil {
			b.cancelDownstream(c.Next, c.Key)
		}
	}
	if len(st.children) == 0 && st.next != "" {
		downKey := st.downKey
		if downKey == "" {
			downKey = payload.RARID
		}
		if _, _, err := b.callPeer(st.next, &signalling.Message{
			Type:   signalling.MsgCancel,
			Cancel: &signalling.CancelPayload{RARID: downKey},
		}); err != nil {
			b.cancelDownstream(st.next, downKey)
		}
	}
	if b.log.Enabled(context.Background(), slog.LevelInfo) {
		b.log.Info("cancel: released reservation",
			obs.AttrRAR, payload.RARID, obs.AttrPeer, string(peer.DN), "handle", st.handle)
	}
	// The cancel's own records (route removal, table cancel, tunnel
	// teardown) join the group commit before the caller hears back.
	b.replWaitCommit()
	b.maybeCheckpoint()
	return signalling.OKResult(st.handle)
}

func (b *BB) handleStatus(payload *signalling.StatusPayload) *signalling.Message {
	b.mu.Lock()
	st, ok := b.routes[payload.RARID]
	b.mu.Unlock()
	if !ok {
		return signalling.ErrorResult(fmt.Sprintf("%s: unknown RAR %s", b.cfg.Domain, payload.RARID))
	}
	r, ok := b.table.Lookup(st.handle)
	if !ok {
		return signalling.ErrorResult(fmt.Sprintf("%s: handle %s vanished", b.cfg.Domain, st.handle))
	}
	resp := signalling.OKResult(st.handle)
	resp.Result.PolicyInfo = map[string]string{
		"status":    r.Status.String(),
		"bandwidth": r.Bandwidth.String(),
		"window":    r.Window.String(),
	}
	return resp
}

// registerTunnelDest records the tunnel endpoint at the destination
// domain; the authenticated source broker (the first BB on the path)
// is the only entity allowed to drive sub-flow allocations over the
// direct channel. A duplicate RAR id — the establishing reservation of
// a still-live tunnel — is an error the caller must surface as a
// denial, not swallow.
func (b *BB) registerTunnelDest(verified *core.VerifiedRequest, peer signalling.Peer) error {
	spec := verified.Spec
	sourceBB := peer.DN
	if len(verified.Path) > 1 {
		// [user, BB_src, ...]; a layer's DN is cut from the string copy of
		// the whole onion, which the endpoint must not keep alive.
		sourceBB = identity.DN(strings.Clone(string(verified.Path[1])))
	}
	ep, err := tunnel.NewEndpoint(spec.RARID, spec.Bandwidth, spec.Window, sourceBB, spec.User)
	if err != nil {
		return err
	}
	return b.registerTunnel(ep)
}

// registerTunnelSource records the tunnel endpoint at the source
// domain, remembering the destination broker from the signed
// approvals so sub-flow requests can go directly to it.
func (b *BB) registerTunnelSource(spec *core.Spec, result *signalling.ResultPayload) error {
	var destBB identity.DN
	for _, a := range result.Approvals {
		if a.Domain == spec.DestDomain && a.Granted {
			destBB = identity.DN(strings.Clone(string(a.BBDN))) // not the result frame's text
			break
		}
	}
	ep, err := tunnel.NewEndpoint(spec.RARID, spec.Bandwidth, spec.Window, destBB, spec.User)
	if err != nil {
		return err
	}
	return b.registerTunnel(ep)
}

// registerTunnel stamps the endpoint with a fresh registration epoch,
// adds it to the registry (duplicate RAR ids are refused) and journals
// the establishment.
func (b *BB) registerTunnel(ep *tunnel.Endpoint) error {
	b.mu.Lock()
	b.rarEpoch++
	ep.Epoch = b.rarEpoch
	b.mu.Unlock()
	if err := b.tunnels.reg.Add(ep); err != nil {
		return err
	}
	b.journalTunnel(ep)
	return nil
}

// RegisterTunnelEndpoint registers a pre-provisioned tunnel endpoint at
// this broker (an out-of-band established aggregate); the registration
// is journaled like one created through the signalling path. Duplicate
// RAR ids are refused.
func (b *BB) RegisterTunnelEndpoint(ep *tunnel.Endpoint) error {
	return b.registerTunnel(ep)
}

// tunnelFor resolves a tunnel endpoint and checks that the peer is
// authorized on it: only the broker authenticated during establishment
// (or the tunnel owner, for the source side) may drive sub-flows.
func (b *BB) tunnelFor(peer signalling.Peer, rarID string) (*tunnel.Endpoint, string) {
	ep, ok := b.tunnels.reg.Get(rarID)
	if !ok {
		return nil, fmt.Sprintf("%s: no tunnel %s", b.cfg.Domain, rarID)
	}
	if peer.DN != ep.PeerBB && peer.DN != ep.Owner {
		return nil, fmt.Sprintf("%s: %s is not authorized on tunnel %s", b.cfg.Domain, peer.DN, rarID)
	}
	return ep, ""
}

func (b *BB) handleTunnelAlloc(peer signalling.Peer, payload *signalling.TunnelAllocPayload) *signalling.Message {
	ep, reason := b.tunnelFor(peer, payload.TunnelRARID)
	if ep == nil {
		return signalling.ErrorResult(reason)
	}
	gen, err := ep.Allocate(payload.SubFlowID, units.Bandwidth(payload.Bandwidth))
	if err != nil {
		b.m.tunnelDenied.Inc()
		return signalling.ErrorResult(err.Error())
	}
	b.m.tunnelAllocs.Inc()
	b.journalTunnelAlloc(ep, payload.SubFlowID, units.Bandwidth(payload.Bandwidth), gen)
	return signalling.OKResult(payload.SubFlowID)
}

func (b *BB) handleTunnelRelease(peer signalling.Peer, payload *signalling.TunnelReleasePayload) *signalling.Message {
	ep, reason := b.tunnelFor(peer, payload.TunnelRARID)
	if ep == nil {
		return signalling.ErrorResult(reason)
	}
	_, gen, err := ep.Release(payload.SubFlowID)
	if err != nil {
		b.m.tunnelDenied.Inc()
		return signalling.ErrorResult(err.Error())
	}
	b.m.tunnelReleases.Inc()
	b.journalTunnelRelease(ep, payload.SubFlowID, gen)
	return signalling.OKResult(payload.SubFlowID)
}

// handleTunnelBatch applies many sub-flow ops in one RPC. Batches are
// idempotent: the first copy applies the ops, journals one record
// (applied ops + outcome) and caches the outcome; a retransmission with
// the same batch id — including one racing the original mid-flight —
// gets the recorded outcome instead of a second application.
func (b *BB) handleTunnelBatch(peer signalling.Peer, payload *signalling.TunnelBatchPayload) *signalling.Message {
	t0 := time.Now()
	if err := payload.Validate(); err != nil {
		b.recordBatchEvent(payload, len(payload.Ops), obs.VerdictDenied, err.Error(), t0)
		return signalling.ErrorResult(err.Error())
	}
	ep, reason := b.tunnelFor(peer, payload.TunnelRARID)
	if ep == nil {
		b.recordBatchEvent(payload, len(payload.Ops), obs.VerdictDenied, reason, t0)
		return signalling.ErrorResult(reason)
	}
	st, dup := b.tunnels.begin(payload.TunnelRARID, payload.BatchID, ep.Epoch)
	if dup {
		<-st.done
		b.m.tunnelBatchReplays.Inc()
		b.log.Info("tunnel: replaying recorded batch outcome",
			obs.AttrRAR, payload.TunnelRARID, obs.AttrPeer, string(peer.DN), "batch", payload.BatchID)
		if outcome := b.tunnels.outcomeOf(st); outcome != nil {
			resp := *outcome // shallow copy: Serve stamps the per-call ID
			return &resp
		}
		return signalling.ErrorResult(fmt.Sprintf("%s: batch %s settled without outcome", b.cfg.Domain, payload.BatchID))
	}
	// A fully granted batch, the common case, builds no per-op state:
	// results exists from the first denial on (the ops before it filled
	// in as granted), applied only when there is a journal to write it
	// to, and the counters move once per batch. The ids alias the decoded
	// frame (DESIGN.md §6.5), so the two places that keep one past this
	// request, the endpoint's map and the recorded outcome, clone it.
	var results []signalling.TunnelOpResult
	var applied []tunnelOpRec
	if b.journal != nil {
		applied = make([]tunnelOpRec, 0, len(payload.Ops))
	}
	var allocs, releases, denied int
	for i := range payload.Ops {
		op := &payload.Ops[i]
		rec := tunnelOpRec{Action: "release", SubFlowID: op.SubFlowID}
		var err error
		if op.Action == signalling.OpAlloc {
			rec.Action, rec.Bandwidth = "alloc", op.Bandwidth
			rec.Gen, err = ep.Allocate(strings.Clone(op.SubFlowID), units.Bandwidth(op.Bandwidth))
		} else {
			_, rec.Gen, err = ep.Release(op.SubFlowID)
		}
		if err != nil {
			if results == nil {
				results = make([]signalling.TunnelOpResult, len(payload.Ops))
				for k := range payload.Ops[:i] {
					results[k] = signalling.TunnelOpResult{SubFlowID: strings.Clone(payload.Ops[k].SubFlowID), Granted: true}
				}
			}
			results[i] = signalling.TunnelOpResult{SubFlowID: strings.Clone(op.SubFlowID), Reason: err.Error()}
			denied++
			continue
		}
		if results != nil {
			results[i] = signalling.TunnelOpResult{SubFlowID: strings.Clone(op.SubFlowID), Granted: true}
		}
		if op.Action == signalling.OpAlloc {
			allocs++
		} else {
			releases++
		}
		if b.journal != nil {
			applied = append(applied, rec)
		}
	}
	b.m.tunnelAllocs.Add(int64(allocs))
	b.m.tunnelReleases.Add(int64(releases))
	b.m.tunnelDenied.Add(int64(denied))
	// Dense success path: a fully-granted batch answers with the single
	// granted bit — the sender knows its own op list, so per-op results
	// only enumerate when some op was denied. On large batches the
	// results array would otherwise dominate the response frame.
	resp := &signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{Granted: denied == 0}}
	if denied > 0 {
		resp.Result.BatchResults = results
		resp.Result.Reason = fmt.Sprintf("%s: %d/%d ops denied", b.cfg.Domain, denied, len(results))
	}
	// Record the outcome, then journal it before releasing duplicate
	// waiters, so a retransmission never observes an unjournaled
	// application — and, in a replica group, withhold it until a
	// majority holds the record.
	b.tunnels.record(st, resp)
	b.journalTunnelBatch(ep, payload.BatchID, applied, resp)
	b.replWaitCommit()
	close(st.done)
	b.m.tunnelBatches.Inc()
	b.m.tunnelBatchSeconds.ObserveSince(t0)
	verdict := obs.VerdictGranted
	if denied > 0 {
		verdict = obs.VerdictDenied
	}
	b.recordBatchEvent(payload, len(payload.Ops), verdict, resp.Result.Reason, t0)
	b.maybeCheckpoint()
	return resp
}

// AllocateTunnelFlow is the source-side API: allocate a sub-flow
// locally and at the destination over the direct channel. Intermediate
// domains are not contacted.
func (b *BB) AllocateTunnelFlow(tunnelRARID, subFlowID string, bw units.Bandwidth, user identity.DN) error {
	ep, ok := b.tunnels.reg.Get(tunnelRARID)
	if !ok {
		return fmt.Errorf("bb %s: no tunnel %s", b.cfg.Domain, tunnelRARID)
	}
	if err := b.localAlloc(ep, subFlowID, bw); err != nil {
		b.m.tunnelDenied.Inc()
		return err
	}
	resp, _, err := b.callPeer(ep.PeerBB, &signalling.Message{
		Type: signalling.MsgTunnelAlloc,
		TunnelAlloc: &signalling.TunnelAllocPayload{
			TunnelRARID: tunnelRARID,
			SubFlowID:   subFlowID,
			User:        user,
			Bandwidth:   int64(bw),
		},
	})
	if err != nil {
		// Roll back the local half; the destination may or may not
		// have allocated, so best-effort release there too.
		b.localRelease(ep, subFlowID)
		go func() {
			if client, cerr := b.clientFor(ep.PeerBB); cerr == nil {
				_, _ = client.CallTimeout(&signalling.Message{
					Type:          signalling.MsgTunnelRelease,
					TunnelRelease: &signalling.TunnelReleasePayload{TunnelRARID: tunnelRARID, SubFlowID: subFlowID},
				}, b.cfg.CallTimeout)
			}
		}()
		return fmt.Errorf("bb %s: tunnel alloc at destination: %w", b.cfg.Domain, err)
	}
	if resp.Result == nil || !resp.Result.Granted {
		b.localRelease(ep, subFlowID)
		reason := "no result"
		if resp.Result != nil {
			reason = resp.Result.Reason
		}
		return fmt.Errorf("bb %s: destination refused sub-flow: %s", b.cfg.Domain, reason)
	}
	b.m.tunnelAllocs.Inc()
	return nil
}

// ReleaseTunnelFlow frees a sub-flow at both ends.
func (b *BB) ReleaseTunnelFlow(tunnelRARID, subFlowID string) error {
	ep, ok := b.tunnels.reg.Get(tunnelRARID)
	if !ok {
		return fmt.Errorf("bb %s: no tunnel %s", b.cfg.Domain, tunnelRARID)
	}
	_, gen, err := ep.Release(subFlowID)
	if err != nil {
		return err
	}
	b.journalTunnelRelease(ep, subFlowID, gen)
	b.m.tunnelReleases.Inc()
	resp, _, err := b.callPeer(ep.PeerBB, &signalling.Message{
		Type:          signalling.MsgTunnelRelease,
		TunnelRelease: &signalling.TunnelReleasePayload{TunnelRARID: tunnelRARID, SubFlowID: subFlowID},
	})
	if err != nil {
		return err
	}
	if resp.Result == nil || !resp.Result.Granted {
		return fmt.Errorf("bb %s: destination refused release", b.cfg.Domain)
	}
	return nil
}

// localAlloc / localRelease mutate the local endpoint half of a
// two-ended sub-flow operation and journal the mutation; rollbacks go
// through them too, so a recovered broker always agrees with the live
// one.
func (b *BB) localAlloc(ep *tunnel.Endpoint, subID string, bw units.Bandwidth) error {
	gen, err := ep.Allocate(subID, bw)
	if err != nil {
		return err
	}
	b.journalTunnelAlloc(ep, subID, bw, gen)
	return nil
}

func (b *BB) localRelease(ep *tunnel.Endpoint, subID string) {
	if _, gen, err := ep.Release(subID); err == nil {
		b.journalTunnelRelease(ep, subID, gen)
	}
}

// TunnelBatch is the batched source-side API: apply many alloc/release
// ops locally, ship the locally-successful subset to the destination in
// one MsgTunnelBatch, and reconcile — an op succeeds only when both
// ends applied it; local halves of remotely-denied ops are rolled back
// (a denied alloc is released, a denied release is re-admitted with its
// original bandwidth). A transport failure rolls back every local op;
// the destination's replay cache makes the retransmitted batch id safe.
// The returned results are in op order.
func (b *BB) TunnelBatch(tunnelRARID string, ops []signalling.TunnelOp, user identity.DN) ([]signalling.TunnelOpResult, error) {
	t0 := time.Now()
	ep, ok := b.tunnels.reg.Get(tunnelRARID)
	if !ok {
		return nil, fmt.Errorf("bb %s: no tunnel %s", b.cfg.Domain, tunnelRARID)
	}
	payload := &signalling.TunnelBatchPayload{
		TunnelRARID: tunnelRARID,
		BatchID:     signalling.NewBatchID(),
		User:        user,
		Ops:         ops,
	}
	if err := payload.Validate(); err != nil {
		return nil, err
	}
	// Source-side batches enter the network here, so this is where the
	// flight-recorder dice roll happens; the decision and trace id ride
	// the payload to the far endpoint.
	if b.sampler.Sample() {
		payload.Sampled = true
		payload.TraceID = obs.NewTraceID()
	}
	results := make([]signalling.TunnelOpResult, len(ops))
	// Local halves first; only locally-admitted ops travel to the peer.
	// While every op is admitted that is the caller's own slice: remote
	// and remoteIdx (the op index of each travelling op) exist from the
	// first local denial on.
	var remote []signalling.TunnelOp
	var remoteIdx []int
	var released []units.Bandwidth // by op index: undo data for remote-denied releases
	for i, op := range ops {
		results[i].SubFlowID = op.SubFlowID
		var err error
		switch op.Action {
		case signalling.OpAlloc:
			err = b.localAlloc(ep, op.SubFlowID, units.Bandwidth(op.Bandwidth))
		case signalling.OpRelease:
			var bw units.Bandwidth
			var gen int64
			if bw, gen, err = ep.Release(op.SubFlowID); err == nil {
				b.journalTunnelRelease(ep, op.SubFlowID, gen)
				if released == nil {
					released = make([]units.Bandwidth, len(ops))
				}
				released[i] = bw
			}
		}
		if err != nil {
			results[i].Reason = err.Error()
			b.m.tunnelDenied.Inc()
			if remoteIdx == nil {
				remote = append(make([]signalling.TunnelOp, 0, len(ops)-1), ops[:i]...)
				remoteIdx = make([]int, i, len(ops)-1)
				for k := range remoteIdx {
					remoteIdx[k] = k
				}
			}
			continue
		}
		if remoteIdx != nil {
			remote = append(remote, op)
			remoteIdx = append(remoteIdx, i)
		}
	}
	sent := len(ops)
	if remoteIdx != nil {
		payload.Ops, sent = remote, len(remote)
	}
	opIndex := func(k int) int { // of the k-th travelling op, in ops
		if remoteIdx != nil {
			return remoteIdx[k]
		}
		return k
	}
	if sent == 0 {
		// Every op failed locally: nothing travelled, the batch settles
		// here as a denial.
		b.recordBatchEvent(payload, len(ops), obs.VerdictDenied, firstReason(results), t0)
		return results, nil
	}
	resp, _, err := b.callPeer(ep.PeerBB, &signalling.Message{Type: signalling.MsgTunnelBatch, TunnelBatch: payload})
	if err != nil || resp.Result == nil {
		// Unknown destination state: undo every local half. The batch id
		// in the destination's replay cache keeps any successful
		// application there answerable; a fresh batch must use a fresh id.
		for k := 0; k < sent; k++ {
			i := opIndex(k)
			b.undoLocalOp(ep, ops[i], released, i)
		}
		if err == nil {
			err = fmt.Errorf("destination sent no result")
		}
		b.recordBatchEvent(payload, len(ops), obs.VerdictError, err.Error(), t0)
		return nil, fmt.Errorf("bb %s: tunnel batch at destination: %w", b.cfg.Domain, err)
	}
	var allocs, releases, denied int
	for k := 0; k < sent; k++ {
		i := opIndex(k)
		var rr *signalling.TunnelOpResult
		if k < len(resp.Result.BatchResults) {
			rr = &resp.Result.BatchResults[k]
		}
		if resp.Result.Granted || (rr != nil && rr.Granted) {
			results[i].Granted = true
			if ops[i].Action == signalling.OpAlloc {
				allocs++
			} else {
				releases++
			}
			continue
		}
		// Destination refused (or the whole batch was refused before any
		// op ran, leaving no per-op results): roll the local half back.
		results[i].Reason = resp.Result.Reason
		if rr != nil && rr.Reason != "" {
			results[i].Reason = rr.Reason
		}
		denied++
		b.undoLocalOp(ep, ops[i], released, i)
	}
	b.m.tunnelAllocs.Add(int64(allocs))
	b.m.tunnelReleases.Add(int64(releases))
	b.m.tunnelDenied.Add(int64(denied))
	b.m.tunnelBatches.Inc()
	if b.cfg.Recorder != nil {
		verdict := obs.VerdictGranted
		for _, r := range results {
			if !r.Granted {
				verdict = obs.VerdictDenied
				break
			}
		}
		b.recordBatchEvent(payload, len(ops), verdict, firstReason(results), t0)
	}
	return results, nil
}

// firstReason surfaces the first per-op denial reason of a batch.
func firstReason(results []signalling.TunnelOpResult) string {
	for _, r := range results {
		if !r.Granted && r.Reason != "" {
			return r.Reason
		}
	}
	return ""
}

// undoLocalOp reverses the local half of a batch op whose remote half
// failed.
func (b *BB) undoLocalOp(ep *tunnel.Endpoint, op signalling.TunnelOp, released []units.Bandwidth, i int) {
	switch op.Action {
	case signalling.OpAlloc:
		b.localRelease(ep, op.SubFlowID)
	case signalling.OpRelease:
		_ = b.localAlloc(ep, op.SubFlowID, released[i])
	}
}

// Tunnel exposes a tunnel endpoint for inspection.
func (b *BB) Tunnel(rarID string) (*tunnel.Endpoint, bool) { return b.tunnels.reg.Get(rarID) }
