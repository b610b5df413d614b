package experiment

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/core"
	"e2eqos/internal/obs"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// reserveTraced is ReserveE2E with a fresh trace id stamped on the
// request, as a requester opting in to tracing sends it.
func (u *User) reserveTraced(spec *core.Spec) (*signalling.ResultPayload, error) {
	rar, err := u.buildRARFor(spec, u.Domain)
	if err != nil {
		return nil, err
	}
	msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, rar)
	if err != nil {
		return nil, err
	}
	msg.Reserve.TraceID = obs.NewTraceID()
	resp, err := u.call(u.Domain, msg)
	if err != nil {
		return nil, err
	}
	return resp.Result, nil
}

// readDomainEvents drains one domain's flight-recorder log.
func readDomainEvents(t *testing.T, dir, domain string) []*obs.Event {
	t.Helper()
	var out []*obs.Event
	if err := obs.ReadEvents(filepath.Join(dir, domain), func(e *obs.Event) bool {
		ev := *e
		out = append(out, &ev)
		return true
	}); err != nil {
		t.Fatalf("reading %s events: %v", domain, err)
	}
	return out
}

// TestFlightRecorderSamplesReserveChain pins the sampling protocol
// end to end: at rate 1 the ingress broker rolls the dice once, and
// the decision plus trace id propagate through the signalling payload
// so EVERY hop of the chain records the same trace — no per-hop
// re-rolling, no rate compounding.
func TestFlightRecorderSamplesReserveChain(t *testing.T) {
	dir := t.TempDir()
	w, err := BuildWorld(WorldConfig{
		NumDomains: 3,
		EnableObs:  true,
		EventsDir:  dir,
		Broker:     bb.Config{SampleRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("reserve: %v %+v", err, res)
	}

	var trace string
	for _, domain := range w.Domains {
		events := readDomainEvents(t, dir, domain)
		if len(events) != 1 {
			t.Fatalf("%s recorded %d events, want 1", domain, len(events))
		}
		ev := events[0]
		if ev.Kind != obs.EventReserve || ev.Domain != domain || !ev.Sampled {
			t.Fatalf("%s: bad event %+v", domain, ev)
		}
		if ev.Verdict != obs.VerdictGranted {
			t.Fatalf("%s: verdict %q, want granted", domain, ev.Verdict)
		}
		if ev.RARID != spec.RARID {
			t.Fatalf("%s: rar %q, want %q", domain, ev.RARID, spec.RARID)
		}
		if ev.TraceID == "" {
			t.Fatalf("%s: sampled event has no trace id", domain)
		}
		if trace == "" {
			trace = ev.TraceID
		} else if ev.TraceID != trace {
			t.Fatalf("%s: trace %q differs from %q — the ingress decision did not propagate", domain, ev.TraceID, trace)
		}
		if ev.DurationNS <= 0 {
			t.Fatalf("%s: missing duration", domain)
		}
	}
	// The ingress hop assembled the full per-hop timeline.
	src := readDomainEvents(t, dir, w.SourceDomain())[0]
	if len(src.Spans) != len(w.Domains) {
		t.Fatalf("source event has %d spans, want %d", len(src.Spans), len(w.Domains))
	}

	// A requester-traced reserve is sampled all the same: the ingress
	// dice rolls regardless of opt-in tracing and reuses the user's
	// trace id instead of minting a second one.
	spec2 := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	res2, err := u.reserveTraced(spec2)
	if err != nil || !res2.Granted {
		t.Fatalf("traced reserve: %v %+v", err, res2)
	}
	for _, domain := range w.Domains {
		events := readDomainEvents(t, dir, domain)
		if len(events) != 2 {
			t.Fatalf("%s recorded %d events after the traced reserve, want 2", domain, len(events))
		}
		ev := events[1]
		if !ev.Sampled || ev.RARID != spec2.RARID {
			t.Fatalf("%s: requester-traced reserve was not sampled: %+v", domain, ev)
		}
		if ev.TraceID == "" || ev.TraceID == trace {
			t.Fatalf("%s: traced reserve should carry the user's own trace id, got %q", domain, ev.TraceID)
		}
	}
}

// TestFlightRecorderTraceThroughTunnelBatch pins the satellite: the
// trace id and sampled bit ride MsgTunnelBatch, so both endpoints of
// a sub-flow batch record the same trace.
func TestFlightRecorderTraceThroughTunnelBatch(t *testing.T) {
	dir := t.TempDir()
	w, err := BuildWorld(WorldConfig{
		NumDomains: 3,
		EnableObs:  true,
		EventsDir:  dir,
		Broker:     bb.Config{SampleRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps, Tunnel: true})
	if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("tunnel establishment: %v %+v", err, res)
	}

	src := w.BBs[w.SourceDomain()]
	ops := []signalling.TunnelOp{
		{Action: signalling.OpAlloc, SubFlowID: "s1", Bandwidth: int64(units.Mbps)},
		{Action: signalling.OpAlloc, SubFlowID: "s2", Bandwidth: int64(units.Mbps)},
	}
	results, err := src.TunnelBatch(spec.RARID, ops, u.DN())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Granted {
			t.Fatalf("op %s denied: %s", r.SubFlowID, r.Reason)
		}
	}

	findBatch := func(domain string) *obs.Event {
		for _, ev := range readDomainEvents(t, dir, domain) {
			if ev.Kind == obs.EventTunnelBatch {
				return ev
			}
		}
		t.Fatalf("%s recorded no tunnel-batch event", domain)
		return nil
	}
	srcEv := findBatch(w.SourceDomain())
	dstEv := findBatch(w.DestDomain())
	if srcEv.TraceID == "" || srcEv.TraceID != dstEv.TraceID {
		t.Fatalf("trace id did not ride MsgTunnelBatch: src %q dst %q", srcEv.TraceID, dstEv.TraceID)
	}
	if !srcEv.Sampled || !dstEv.Sampled {
		t.Fatalf("sampled bit did not propagate: src %t dst %t", srcEv.Sampled, dstEv.Sampled)
	}
	if srcEv.Ops != len(ops) || dstEv.Ops != len(ops) {
		t.Fatalf("ops counts src %d dst %d, want %d", srcEv.Ops, dstEv.Ops, len(ops))
	}
	if srcEv.Verdict != obs.VerdictGranted || dstEv.Verdict != obs.VerdictGranted {
		t.Fatalf("verdicts src %q dst %q", srcEv.Verdict, dstEv.Verdict)
	}
}

// TestFlightRecorderForcesDenials pins the always-on half of the
// recorder: with probabilistic sampling OFF, a denial must still be
// recorded (forced), while granted requests stay unrecorded.
func TestFlightRecorderForcesDenials(t *testing.T) {
	dir := t.TempDir()
	w, err := BuildWorld(WorldConfig{
		NumDomains: 2,
		EnableObs:  true,
		EventsDir:  dir,
		Broker:     bb.Config{SampleRate: 0}, // never sample; only forced events may appear
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	// A granted request at rate 0 must leave no trace on disk.
	okSpec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	if res, err := u.ReserveE2E(okSpec); err != nil || !res.Granted {
		t.Fatalf("reserve: %v %+v", err, res)
	}
	for _, domain := range w.Domains {
		if evs := readDomainEvents(t, dir, domain); len(evs) != 0 {
			t.Fatalf("%s recorded %d events for a granted, unsampled request", domain, len(evs))
		}
	}

	// A denial (bandwidth over capacity) is forced onto disk.
	badSpec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10_000 * units.Mbps})
	res, err := u.ReserveE2E(badSpec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Granted {
		t.Fatal("oversized reservation was granted")
	}
	evs := readDomainEvents(t, dir, w.SourceDomain())
	if len(evs) != 1 {
		t.Fatalf("source recorded %d events, want the forced denial", len(evs))
	}
	ev := evs[0]
	if ev.Sampled {
		t.Fatal("forced event must not claim it was sampled")
	}
	if ev.Verdict == obs.VerdictGranted || ev.Reason == "" {
		t.Fatalf("forced denial event lacks verdict/reason: %+v", ev)
	}
	if w.CounterTotal("bb_events_forced_total") == 0 {
		t.Error("bb_events_forced_total not incremented")
	}
}

// TestRestartedBrokerAppendsToItsEventLog: a broker opens its flight
// recorder from its own directory, so a broker rebuilt after a crash
// appends after the events its predecessor recorded, in order.
func TestRestartedBrokerAppendsToItsEventLog(t *testing.T) {
	dir := t.TempDir()
	w, err := BuildWorld(WorldConfig{NumDomains: 2, StateDir: t.TempDir(), EventsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	src := w.SourceDomain()
	deny := func(user string) string {
		t.Helper()
		u, err := w.NewUser(user, "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10_000 * units.Mbps})
		if res, err := u.ReserveE2E(spec); err != nil || res.Granted {
			t.Fatalf("oversized reserve: %+v, %v; want a denial", res, err)
		}
		return spec.RARID
	}
	first := deny("alice")
	if err := w.CrashDomain(src); err != nil {
		t.Fatal(err)
	}
	if err := w.RestartDomainFromJournal(src); err != nil {
		t.Fatal(err)
	}
	second := deny("bob")
	evs := readDomainEvents(t, dir, src)
	if len(evs) != 2 || evs[0].RARID != first || evs[1].RARID != second {
		var got []string
		for _, ev := range evs {
			got = append(got, ev.RARID)
		}
		t.Fatalf("%s recorded %q, want [%s %s]", src, got, first, second)
	}
}

// TestScaleLoadReportsQuantiles runs the -exp scale experiment as
// cmd/experiments does: the table must carry p50/p99/p999 columns with
// non-zero latencies for the broker's hot stages.
func TestScaleLoadReportsQuantiles(t *testing.T) {
	tbl, err := RunScaleLoad(ScaleLoadConfig{
		Latency:   500 * time.Microsecond,
		EventsDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(tbl.Columns, " ")
	for _, col := range []string{"p50", "p99", "p999"} {
		if !strings.Contains(joined, col) {
			t.Errorf("scale table missing column %q", col)
		}
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("scale table has no rows")
	}
	stages := make(map[string]bool)
	for _, row := range tbl.Rows {
		stages[row[1]] = true
	}
	for _, want := range []string{"bb_handle_seconds", "bb_grant_seconds"} {
		if !stages[want] {
			t.Errorf("scale table missing stage %q (have %v)", want, stages)
		}
	}
}
