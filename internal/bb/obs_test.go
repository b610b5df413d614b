package bb_test

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/core"
	"e2eqos/internal/experiment"
	"e2eqos/internal/obs"
	"e2eqos/internal/policy"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// traceWorld builds an observability-enabled chain and a user in it.
func traceWorld(t *testing.T, cfg experiment.WorldConfig) (*experiment.World, *experiment.User) {
	t.Helper()
	cfg.EnableObs = true
	w, err := experiment.BuildWorld(cfg)
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

// tracedReserve is u.ReserveE2E with a fresh trace id stamped on the
// request, on a connection of its own: the result comes back with one
// span per hop it reached.
func tracedReserve(w *experiment.World, u *experiment.User, spec *core.Spec) (*signalling.ResultPayload, error) {
	rar, err := u.Agent.BuildRAR(spec, w.BBCerts[u.Domain])
	if err != nil {
		return nil, err
	}
	msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, rar)
	if err != nil {
		return nil, err
	}
	msg.Reserve.TraceID = obs.NewTraceID()
	c, err := signalling.Dial(w.Net.NewEndpoint(u.DN(), u.Agent.Cert.DER), w.BBAddr(u.Domain))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	resp, err := c.Call(msg, 0)
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("broker sent no result")
	}
	if err := resp.Result.DecodeApprovals(); err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// assertOneSpanPerDomain checks the structural invariant of a complete
// trace: exactly one span per hop, each domain appearing once, in
// destination-first wire order.
func assertOneSpanPerDomain(t *testing.T, w *experiment.World, spans []obs.Span) {
	t.Helper()
	if len(spans) != len(w.Domains) {
		t.Fatalf("trace has %d spans, want one per hop (%d): %+v", len(spans), len(w.Domains), spans)
	}
	for i, s := range spans {
		want := w.Domains[len(w.Domains)-1-i]
		if s.Domain != want {
			t.Errorf("span %d is from %s, want %s (destination-first order)", i, s.Domain, want)
		}
	}
}

// TestTracePropagatesAcrossChain: a traced reserve over a 4-domain
// chain must come back with one populated span per hop.
func TestTracePropagatesAcrossChain(t *testing.T) {
	w, u := traceWorld(t, experiment.WorldConfig{NumDomains: 4})
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	res, err := tracedReserve(w, u, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted {
		t.Fatalf("denied: %s", res.Reason)
	}
	if res.TraceID == "" {
		t.Fatal("grant does not echo the trace id")
	}
	assertOneSpanPerDomain(t, w, res.Trace)
	for _, s := range res.Trace {
		if s.Verdict != obs.VerdictGranted {
			t.Errorf("span %s verdict %q, want %q", s.Domain, s.Verdict, obs.VerdictGranted)
		}
		if s.TotalNS <= 0 || s.PolicyNS <= 0 || s.AdmitNS <= 0 || s.VerifyNS <= 0 {
			t.Errorf("span %s has unpopulated durations: %+v", s.Domain, s)
		}
	}
	// Non-destination hops forwarded, so their downstream time is real.
	for _, s := range res.Trace[1:] {
		if s.DownstreamNS <= 0 {
			t.Errorf("forwarding span %s has no downstream time", s.Domain)
		}
	}
	// The destination span never forwards.
	if res.Trace[0].DownstreamNS != 0 {
		t.Errorf("destination span records downstream time %d", res.Trace[0].DownstreamNS)
	}
}

// TestTraceIdentifiesDenyingHop: when a mid-chain policy refuses, the
// trace must name that hop as denied and mark the hops above it as
// rolled back.
func TestTraceIdentifiesDenyingHop(t *testing.T) {
	w, u := traceWorld(t, experiment.WorldConfig{
		NumDomains: 4,
		Policies:   map[string]*policy.Policy{"Domain2": policy.MustParse("deny-all", "deny")},
	})
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	res, err := tracedReserve(w, u, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("granted through a deny-all policy")
	}
	// The chain stopped at Domain2: spans exist for hops 0..2 only,
	// destination-first (Domain2 refused, Domain1/Domain0 rolled back).
	if len(res.Trace) != 3 {
		t.Fatalf("trace has %d spans, want 3 (the hops the RAR reached): %+v", len(res.Trace), res.Trace)
	}
	deny := res.Trace[0]
	if deny.Domain != "Domain2" || deny.Verdict != obs.VerdictDenied {
		t.Fatalf("deepest span is %s/%s, want Domain2/%s", deny.Domain, deny.Verdict, obs.VerdictDenied)
	}
	if deny.Reason == "" {
		t.Error("denying span carries no reason")
	}
	for _, s := range res.Trace[1:] {
		if s.Verdict != obs.VerdictRolledBack {
			t.Errorf("upstream span %s verdict %q, want %q", s.Domain, s.Verdict, obs.VerdictRolledBack)
		}
	}
}

// deadDialer refuses every dial — a hop whose downstream link is
// entirely down, failing fast enough for its error span to reach the
// user inside the upstream deadlines.
type deadDialer struct{}

func (deadDialer) Dial(addr string) (transport.Conn, error) {
	return nil, fmt.Errorf("obs test: link to %q down", addr)
}

// TestTraceMarksFailedHop: when a hop's downstream link is down, that
// hop's span must carry the error verdict so the trace alone answers
// "which hop failed" — distinct from a hop that itself refused.
func TestTraceMarksFailedHop(t *testing.T) {
	w, u := traceWorld(t, experiment.WorldConfig{
		NumDomains:  4,
		CallTimeout: time.Second,
		WrapDialer: func(name string, d transport.Dialer) transport.Dialer {
			if name != "Domain1" {
				return d
			}
			return deadDialer{}
		},
	})
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	res, err := tracedReserve(w, u, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("granted through a dead link")
	}
	if len(res.Trace) != 2 {
		t.Fatalf("trace has %d spans, want 2 (Domain1 errored, Domain0 rolled back): %+v", len(res.Trace), res.Trace)
	}
	errSpan := res.Trace[0]
	if errSpan.Domain != "Domain1" || errSpan.Verdict != obs.VerdictError {
		t.Fatalf("deepest span is %s/%s, want Domain1/%s", errSpan.Domain, errSpan.Verdict, obs.VerdictError)
	}
	if errSpan.Reason == "" {
		t.Error("error span carries no reason")
	}
	if res.Trace[1].Verdict != obs.VerdictRolledBack {
		t.Errorf("source span verdict %q, want %q", res.Trace[1].Verdict, obs.VerdictRolledBack)
	}
}

// dropFirstResponseDialer consumes and discards the first response
// crossing any of its connections, then fails that Recv — forcing the
// caller into exactly one retry whose retransmission hits the
// downstream hop's idempotent-replay path.
type dropFirstResponseDialer struct {
	inner transport.Dialer
	drops atomic.Int32
}

func (d *dropFirstResponseDialer) Dial(addr string) (transport.Conn, error) {
	conn, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &dropFirstResponseConn{Conn: conn, d: d}, nil
}

type dropFirstResponseConn struct {
	transport.Conn
	d *dropFirstResponseDialer
}

func (c *dropFirstResponseConn) Recv() ([]byte, error) {
	data, err := c.Conn.Recv()
	if err != nil {
		return data, err
	}
	if c.d.drops.Add(-1) >= 0 {
		// The downstream hop HAS processed the request (we just read its
		// response); losing it here models a response lost in transit.
		return nil, fmt.Errorf("obs test: response dropped")
	}
	return data, nil
}

// TestTraceSurvivesRetryWithoutDuplicateSpans: a lost response makes
// the source hop retransmit; the downstream hop replays its recorded
// outcome. The final trace must still hold exactly one span per
// domain, with the source span accounting for the retry.
func TestTraceSurvivesRetryWithoutDuplicateSpans(t *testing.T) {
	flaky := &dropFirstResponseDialer{}
	flaky.drops.Store(1)
	w, u := traceWorld(t, experiment.WorldConfig{
		NumDomains:  3,
		CallTimeout: time.Second,
		Broker:      bb.Config{MaxRetries: 1, RetryBackoff: 5 * time.Millisecond},
		WrapDialer: func(name string, d transport.Dialer) transport.Dialer {
			if name != "Domain0" {
				return d
			}
			flaky.inner = d
			return flaky
		},
	})
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	res, err := tracedReserve(w, u, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted {
		t.Fatalf("denied despite retry budget: %s", res.Reason)
	}
	assertOneSpanPerDomain(t, w, res.Trace)
	src := res.Trace[len(res.Trace)-1]
	if src.Retries != 1 {
		t.Errorf("source span records %d retries, want 1", src.Retries)
	}
	// The metrics agree: one retry, one replay, both at the right hops.
	if got := w.Metrics["Domain0"].Snapshot()["bb_retries_total"]; got != 1 {
		t.Errorf("Domain0 bb_retries_total = %v, want 1", got)
	}
	if got := w.Metrics["Domain1"].Snapshot()["bb_replays_total"]; got != 1 {
		t.Errorf("Domain1 bb_replays_total = %v, want 1", got)
	}
}

// TestUntracedReserveCarriesNoSpans: without the opt-in trace id the
// result must stay span-free — the zero-cost disabled path.
func TestUntracedReserveCarriesNoSpans(t *testing.T) {
	w, u := traceWorld(t, experiment.WorldConfig{NumDomains: 3})
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted {
		t.Fatalf("denied: %s", res.Reason)
	}
	if res.TraceID != "" || len(res.Trace) != 0 {
		t.Fatalf("untraced reserve came back with trace data: id=%q spans=%d", res.TraceID, len(res.Trace))
	}
}

// TestBrokerMetricsLifecycle pins the grant-path counters and gauges:
// a reserve over 3 domains increments received everywhere, forwarded
// everywhere but the destination, and the reserved-bandwidth gauge
// tracks grant and cancel.
func TestBrokerMetricsLifecycle(t *testing.T) {
	w, u := traceWorld(t, experiment.WorldConfig{NumDomains: 3})
	// A window already in progress, so the reserved-bandwidth gauge
	// (sampled "right now") sees the commitment immediately.
	spec := u.NewSpec(experiment.SpecOptions{
		DestDomain: w.DestDomain(),
		Bandwidth:  10 * units.Mbps,
		Window:     units.NewWindow(time.Now().Add(-time.Second), time.Hour),
	})
	res, err := tracedReserve(w, u, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Granted {
		t.Fatalf("denied: %s", res.Reason)
	}
	for i, name := range w.Domains {
		snap := w.Metrics[name].Snapshot()
		if snap["bb_rars_received_total"] != 1 {
			t.Errorf("%s received %v RARs, want 1", name, snap["bb_rars_received_total"])
		}
		wantFwd := 1.0
		if i == len(w.Domains)-1 {
			wantFwd = 0
		}
		if snap["bb_rars_forwarded_total"] != wantFwd {
			t.Errorf("%s forwarded %v, want %v", name, snap["bb_rars_forwarded_total"], wantFwd)
		}
		if snap["bb_rars_granted_total"] != 1 {
			t.Errorf("%s granted %v, want 1", name, snap["bb_rars_granted_total"])
		}
		if got := snap["bb_reserved_bps"]; got != float64(10*units.Mbps) {
			t.Errorf("%s reserved gauge %v, want %v", name, got, float64(10*units.Mbps))
		}
		if snap["bb_handle_seconds_count"] != 1 {
			t.Errorf("%s handle histogram count %v, want 1", name, snap["bb_handle_seconds_count"])
		}
	}
	// End-to-end grant latency is observed at the source hop only.
	if got := w.CounterTotal("bb_grant_seconds_count"); got != 1 {
		t.Errorf("bb_grant_seconds observed %v times across the chain, want 1", got)
	}
	if err := u.Cancel(w.SourceDomain(), spec.RARID); err != nil {
		t.Fatal(err)
	}
	for _, name := range w.Domains {
		snap := w.Metrics[name].Snapshot()
		if snap["bb_cancels_total"] != 1 {
			t.Errorf("%s saw %v cancels, want 1", name, snap["bb_cancels_total"])
		}
		if snap["bb_reserved_bps"] != 0 {
			t.Errorf("%s reserved gauge %v after cancel, want 0", name, snap["bb_reserved_bps"])
		}
	}
}

// recordingHandler is a slog handler that counts what it is asked and
// keeps what it is given. Loggers derived from it share its counters.
type recordingHandler struct {
	level slog.Level
	log   *recordedLog
	attrs []slog.Attr
}

type recordedLog struct {
	mu      sync.Mutex
	asked   int
	records []map[string]string // message under "msg", attributes in "keys" order
}

func (h recordingHandler) Enabled(_ context.Context, l slog.Level) bool {
	h.log.mu.Lock()
	h.log.asked++
	h.log.mu.Unlock()
	return l >= h.level
}

func (h recordingHandler) Handle(_ context.Context, r slog.Record) error {
	rec := map[string]string{"msg": r.Message, "level": r.Level.String()}
	var keys []string
	add := func(a slog.Attr) bool {
		rec[a.Key] = a.Value.String()
		keys = append(keys, a.Key)
		return true
	}
	for _, a := range h.attrs {
		add(a)
	}
	r.Attrs(add)
	rec["keys"] = strings.Join(keys, ",")
	h.log.mu.Lock()
	h.log.records = append(h.log.records, rec)
	h.log.mu.Unlock()
	return nil
}

func (h recordingHandler) WithAttrs(as []slog.Attr) slog.Handler {
	h.attrs = append(h.attrs[:len(h.attrs):len(h.attrs)], as...)
	return h
}

func (h recordingHandler) WithGroup(string) slog.Handler { return h }

func (l *recordedLog) find(domain, msg string) map[string]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.records {
		if r["msg"] == msg && r[obs.AttrDomain] == domain {
			return r
		}
	}
	return nil
}

// TestVerdictLogRecords: the reserve and cancel paths ask a logger
// whether it is on before they build their per-request records, and a
// logger that is on still gets the records it always got — same level,
// same message, same attributes in the same order with the same values.
// One that is off is asked and handed nothing.
func TestVerdictLogRecords(t *testing.T) {
	run := func(level slog.Level) (*recordedLog, *experiment.World, [2]string, string) {
		log := &recordedLog{}
		w, err := experiment.BuildWorld(experiment.WorldConfig{
			NumDomains: 2,
			Policies:   map[string]*policy.Policy{"Domain1": policy.MustParse("small-only", "allow if bw <= 50Mb/s\ndeny")},
			Broker:     bb.Config{Logger: slog.New(recordingHandler{level: level, log: log})},
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
		ok := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
		res, err := u.ReserveE2E(ok)
		if err != nil || !res.Granted {
			t.Fatalf("reserve: res=%+v err=%v", res, err)
		}
		big := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 80 * units.Mbps})
		if res, err := u.ReserveE2E(big); err != nil || res.Granted {
			t.Fatalf("over-policy reserve: res=%+v err=%v", res, err)
		}
		if err := u.Cancel(w.SourceDomain(), ok.RARID); err != nil {
			t.Fatal(err)
		}
		return log, w, [2]string{ok.RARID, big.RARID}, res.Handle
	}

	log, w, ids, handle := run(slog.LevelInfo)
	user := log.find("Domain0", "reserve granted")["user"]
	for _, want := range []map[string]string{
		{"msg": "reserve granted", "level": "INFO", "keys": "domain,rar,trace,user,bw,dest,handle,took",
			"rar": ids[0], "trace": "", "user": user, "bw": (10 * units.Mbps).String(), "dest": w.DestDomain(), "handle": handle},
		{"msg": "reserve denied", "level": "WARN", "keys": "domain,rar,trace,user,bw,dest,reason,took",
			"rar": ids[1], "trace": "", "user": user, "bw": (80 * units.Mbps).String(), "dest": w.DestDomain()},
		{"msg": "cancel: released reservation", "level": "INFO", "keys": "domain,rar,peer,handle",
			"rar": ids[0], "peer": user, "handle": handle},
	} {
		got := log.find("Domain0", want["msg"])
		if got == nil {
			t.Errorf("no %q record from Domain0", want["msg"])
			continue
		}
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%q record: %s = %q, want %q", want["msg"], k, got[k], v)
			}
		}
	}
	if user == "" || !strings.Contains(log.find("Domain0", "reserve denied")["reason"], "policy denied") {
		t.Errorf("records lost their values: user %q, denial %+v", user, log.find("Domain0", "reserve denied"))
	}

	off, _, _, _ := run(slog.LevelError + 4)
	if len(off.records) != 0 || off.asked == 0 {
		t.Errorf("a logger that is off was asked %d times and handed %d records, want asked and handed none", off.asked, len(off.records))
	}
}
