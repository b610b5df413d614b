package bb_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/experiment"
	"e2eqos/internal/identity"
	"e2eqos/internal/journal"
	"e2eqos/internal/obs"
	"e2eqos/internal/resv"
	"e2eqos/internal/saga"
	"e2eqos/internal/signalling"
	"e2eqos/internal/topology"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// grantedBWIn sums the bandwidth of granted reservations in one
// domain's table.
func grantedBWIn(w *experiment.World, domain string) units.Bandwidth {
	var total units.Bandwidth
	for _, r := range w.BBs[domain].Table().All() {
		if r.Status == resv.Granted {
			total += r.Bandwidth
		}
	}
	return total
}

// multiWorld builds a fan topology: Domain0 -> {Domain1..DomainN} ->
// Domain{N+1}, every branch edge-disjoint, branch i carrying cost i.
func multiWorld(t *testing.T, branches int, cfg experiment.WorldConfig) *experiment.World {
	t.Helper()
	topo, err := topology.Multi(branches, 1000*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topo = topo
	w, err := experiment.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// TestRerouteAroundDeadBranch kills each branch of a 3-branch fan in
// turn, mid-signalling: the transport failure surfaces only once the
// RAR is already in flight. The reservation must settle on a disjoint
// alternate path, with no double admission anywhere and nothing
// stranded on the dead branch.
func TestRerouteAroundDeadBranch(t *testing.T) {
	for _, dead := range []string{"Domain1", "Domain2", "Domain3"} {
		t.Run(dead, func(t *testing.T) {
			w := multiWorld(t, 3, experiment.WorldConfig{
				CallTimeout: 2 * time.Second,
				Broker:      bb.Config{RetryBackoff: time.Millisecond, MaxPaths: 3},
				EnableObs:   true,
			})
			if err := w.StopDomain(dead); err != nil {
				t.Fatal(err)
			}
			u, err := w.NewUser("alice", "", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(u.Close)

			spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
			res, err := u.ReserveE2E(spec)
			if err != nil || !res.Granted {
				t.Fatalf("reserve with %s dead: res=%+v err=%v", dead, res, err)
			}
			if err := w.VerifyApprovals(res); err != nil {
				t.Fatalf("approval signatures: %v", err)
			}

			// The grant's approval chain must route around the dead branch.
			used := ""
			for _, a := range res.Approvals {
				if a.Domain == dead {
					t.Errorf("approval chain crosses the dead branch %s", dead)
				}
				if a.Domain != "Domain0" && a.Domain != w.DestDomain() {
					used = a.Domain
				}
			}
			if used == "" {
				t.Fatalf("no mid branch in approvals: %+v", res.Approvals)
			}

			// Zero double admission: exactly one granted reservation on the
			// chain actually used, zero everywhere else (the dead branch
			// never admitted — its broker object is alive, only its
			// frontend died, so its table is still inspectable).
			for _, d := range w.Domains {
				want := 0
				if d == "Domain0" || d == w.DestDomain() || d == used {
					want = 1
				}
				if got := grantedIn(w, d); got != want {
					t.Errorf("%s: %d granted, want %d", d, got, want)
				}
			}

			if dead == "Domain1" {
				// The primary (cheapest) branch died, so the grant is a
				// genuine re-route onto a disjoint path.
				if n := w.CounterTotal("bb_reroutes_total"); n < 1 {
					t.Errorf("bb_reroutes_total = %v, want >= 1", n)
				}
				// Cancel must follow the re-routed key downstream: the
				// ingress holds the RAR under the user's id but forwarded
				// the surviving attempt under a salted key.
				if err := u.Cancel("Domain0", spec.RARID); err != nil {
					t.Fatalf("cancel after re-route: %v", err)
				}
				waitForCleanTables(t, w)
			}
		})
	}
}

// TestBreakerSkipsPathOnReroute drives the breaker path of re-routing:
// with the primary branch dead and a threshold of one failure, the
// first reserve trips Domain0's breaker toward Domain1 mid-signalling
// and re-routes; the second reserve must skip the primary path without
// attempting it at all.
func TestBreakerSkipsPathOnReroute(t *testing.T) {
	w := multiWorld(t, 3, experiment.WorldConfig{
		CallTimeout: 2 * time.Second,
		Broker:      bb.Config{RetryBackoff: time.Millisecond, BreakerThreshold: 1, BreakerCooldown: time.Minute, MaxPaths: 3},
		EnableObs:   true,
	})
	if err := w.StopDomain("Domain1"); err != nil {
		t.Fatal(err)
	}
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	res1, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 5 * units.Mbps}))
	if err != nil || !res1.Granted {
		t.Fatalf("first reserve: res=%+v err=%v", res1, err)
	}
	if n := w.CounterTotal("bb_reroutes_total"); n < 1 {
		t.Errorf("bb_reroutes_total after first reserve = %v, want >= 1", n)
	}

	res2, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 5 * units.Mbps}))
	if err != nil || !res2.Granted {
		t.Fatalf("second reserve: res=%+v err=%v", res2, err)
	}
	if n := w.CounterTotal("bb_reroute_path_skips_total"); n < 1 {
		t.Errorf("bb_reroute_path_skips_total = %v, want >= 1 (breaker-open path not skipped)", n)
	}
	// Both grants went through Domain2 (the cheapest live branch);
	// nothing touched Domain1 or Domain3.
	for d, want := range map[string]int{"Domain0": 2, "Domain2": 2, "Domain4": 2, "Domain1": 0, "Domain3": 0} {
		if got := grantedIn(w, d); got != want {
			t.Errorf("%s: %d granted, want %d", d, got, want)
		}
	}
}

// TestTripBreakerForcesReroute is the operator-forced variant of the
// acceptance scenario: every broker is healthy, but Domain0's breaker
// toward the primary branch is tripped by hand. The reserve must skip
// the path pre-flight (no attempt, so no re-route counted either) and
// settle on the next disjoint path.
func TestTripBreakerForcesReroute(t *testing.T) {
	w := multiWorld(t, 3, experiment.WorldConfig{
		CallTimeout: 2 * time.Second,
		Broker:      bb.Config{MaxPaths: 3},
		EnableObs:   true,
	})
	if err := w.BBs["Domain0"].TripBreaker("Domain1"); err != nil {
		t.Fatal(err)
	}
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 5 * units.Mbps}))
	if err != nil || !res.Granted {
		t.Fatalf("reserve with tripped breaker: res=%+v err=%v", res, err)
	}
	for _, a := range res.Approvals {
		if a.Domain == "Domain1" {
			t.Error("approval chain crosses the breaker-open branch")
		}
	}
	if n := w.CounterTotal("bb_reroute_path_skips_total"); n < 1 {
		t.Errorf("bb_reroute_path_skips_total = %v, want >= 1", n)
	}
	if got := grantedIn(w, "Domain1"); got != 0 {
		t.Errorf("Domain1 admitted %d reservations through an open breaker", got)
	}
}

// TestSplitAcrossCapacityConstrainedPaths is the split acceptance
// scenario: neither branch of a two-branch fan can carry the full
// bandwidth, so the ingress splits the reservation into per-path
// children whose shares sum exactly to the signed bandwidth, settled
// atomically through the saga.
func TestSplitAcrossCapacityConstrainedPaths(t *testing.T) {
	w := multiWorld(t, 2, experiment.WorldConfig{
		Capacity: 10 * units.Mbps,
		Capacities: map[string]units.Bandwidth{
			"Domain1": 5 * units.Mbps,
			"Domain2": 5 * units.Mbps,
		},
		CallTimeout: 2 * time.Second,
		Broker:      bb.Config{MaxPaths: 2, SplitParts: 2},
		EnableObs:   true,
	})
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("split reserve: res=%+v err=%v", res, err)
	}
	if err := w.VerifyApprovals(res); err != nil {
		t.Fatalf("approval signatures on split grant: %v", err)
	}
	// One statement per leg, each by the destination.
	if stmts, err := signalling.Statements(res.Approvals); err != nil || len(stmts) != 2 || stmts[0][0].Domain != w.DestDomain() || stmts[1][0].Domain != w.DestDomain() {
		t.Errorf("split grant statements %+v (%v), want two by %s", stmts, err, w.DestDomain())
	}
	if n := w.CounterTotal("bb_splits_total"); n != 1 {
		t.Errorf("bb_splits_total = %v, want 1", n)
	}
	if n := w.CounterTotal("bb_split_failures_total"); n != 0 {
		t.Errorf("bb_split_failures_total = %v, want 0", n)
	}

	// The children's shares sum exactly to the signed bandwidth: one
	// 5 Mb/s admission per branch, two admissions totalling 10 Mb/s at
	// the destination, the full aggregate at the ingress.
	for domain, want := range map[string]units.Bandwidth{
		"Domain0": 10 * units.Mbps,
		"Domain1": 5 * units.Mbps,
		"Domain2": 5 * units.Mbps,
		"Domain3": 10 * units.Mbps,
	} {
		if got := grantedBWIn(w, domain); got != want {
			t.Errorf("%s: %s granted bandwidth, want %s", domain, got, want)
		}
	}
	for domain, want := range map[string]int{"Domain0": 1, "Domain1": 1, "Domain2": 1, "Domain3": 2} {
		if got := grantedIn(w, domain); got != want {
			t.Errorf("%s: %d granted reservations, want %d", domain, got, want)
		}
	}

	// Cancelling the parent must fan out to every child leg: the split
	// ingress recorded one downstream route per path, each under its
	// own salted key.
	if err := u.Cancel("Domain0", spec.RARID); err != nil {
		t.Fatalf("cancel split reservation: %v", err)
	}
	waitForCleanTables(t, w)
}

// TestSplitAbortsAtomicallyOnPartialDenial: one branch can carry its
// share, the other cannot. The saga must withdraw the granted sibling
// and release the ingress admission — a denial with zero stranded
// bandwidth anywhere, never a half-placed reservation.
func TestSplitAbortsAtomicallyOnPartialDenial(t *testing.T) {
	w := multiWorld(t, 2, experiment.WorldConfig{
		Capacity: 10 * units.Mbps,
		Capacities: map[string]units.Bandwidth{
			"Domain1": 5 * units.Mbps,
			"Domain2": 3 * units.Mbps, // cannot carry a 5 Mb/s share
		},
		CallTimeout: 2 * time.Second,
		Broker:      bb.Config{RetryBackoff: time.Millisecond, MaxPaths: 2, SplitParts: 2},
		EnableObs:   true,
	})
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps}))
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if res.Granted {
		t.Fatalf("split granted despite an undersized branch: %+v", res)
	}
	// The denial carries the constrained branch's signed refusal.
	refused := false
	for _, a := range res.Approvals {
		if a.Domain == "Domain2" && !a.Granted {
			refused = true
		}
	}
	if !refused {
		t.Errorf("denial does not carry Domain2's signed refusal: %+v", res.Approvals)
	}
	if n := w.CounterTotal("bb_split_failures_total"); n != 1 {
		t.Errorf("bb_split_failures_total = %v, want 1", n)
	}
	if n := w.CounterTotal("bb_sagas_aborted_total"); n < 1 {
		t.Errorf("bb_sagas_aborted_total = %v, want >= 1", n)
	}
	// Atomic rollback: the granted sibling leg and the ingress
	// admission are withdrawn by the saga's compensations.
	waitForCleanTables(t, w)
	if n := w.CounterTotal("bb_saga_compensations_total"); n < 2 {
		t.Errorf("bb_saga_compensations_total = %v, want >= 2 (sibling cancel + local release)", n)
	}
}

// splitGateDialer wraps Domain0's outbound dialer for the crash test:
// connections to the gated address pass their first Send through (the
// full-bandwidth single-path attempt, which the capacity-constrained
// branch denies) and block the second Send — the split child — until
// the gate opens, then fail it. That parks the split mid-saga, after
// the sibling leg was granted and every compensation journaled, with
// the end record still unwritten.
type splitGateDialer struct {
	inner  transport.Dialer
	target string
	hit    chan struct{} // closed when a Send blocks on the gate
	gate   chan struct{} // close to release the blocked Send
	once   atomic.Bool
}

func (d *splitGateDialer) Dial(addr string) (transport.Conn, error) {
	conn, err := d.inner.Dial(addr)
	if err != nil || addr != d.target {
		return conn, err
	}
	return &splitGateConn{Conn: conn, d: d}, nil
}

type splitGateConn struct {
	transport.Conn
	d     *splitGateDialer
	sends atomic.Int64
}

func (c *splitGateConn) Send(msg []byte) error {
	if c.sends.Add(1) == 2 && c.d.once.CompareAndSwap(false, true) {
		close(c.d.hit)
		<-c.d.gate
		return fmt.Errorf("splitgate: link to %s severed", c.d.target)
	}
	return c.Conn.Send(msg)
}

// TestSplitCrashRecoveryResumesCompensations crashes the ingress
// broker in the middle of a split — after the first leg was granted
// downstream and every compensation step hit the journal, before the
// saga's end record. The broker rebuilt from that journal must
// presume abort, resume the compensations, withdraw the granted leg
// (which propagates to the destination) and release its own admission;
// and a second crash/rebuild must reproduce the reconciled table
// byte-identically.
func TestSplitCrashRecoveryResumesCompensations(t *testing.T) {
	gate := &splitGateDialer{
		target: "bb.Domain2",
		hit:    make(chan struct{}),
		gate:   make(chan struct{}),
	}
	w := multiWorld(t, 2, experiment.WorldConfig{
		Capacity: 10 * units.Mbps,
		Capacities: map[string]units.Bandwidth{
			"Domain1": 5 * units.Mbps,
			"Domain2": 5 * units.Mbps,
		},
		CallTimeout: time.Second,
		Broker:      bb.Config{RetryBackoff: 5 * time.Millisecond, MaxPaths: 2, SplitParts: 2},
		EnableObs:   true,
		StateDir:    t.TempDir(),
		FsyncPolicy: "always",
		WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
			if domain != "Domain0" {
				return d
			}
			gate.inner = d
			return gate
		},
	})
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)

	// The reserve parks inside the split when the second child's send
	// blocks on the gate; the user's call dies with the crash below.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps}))
	}()

	select {
	case <-gate.hit:
	case <-time.After(10 * time.Second):
		t.Fatal("split never reached the gated second child")
	}
	// Saga state on disk at this instant: the release step and both
	// cancel steps — no end. The sibling leg via Domain1
	// is granted downstream (Domain1 and Domain3 both admitted).
	if got := grantedIn(w, "Domain1"); got != 1 {
		t.Fatalf("Domain1: %d granted before crash, want 1 (sibling leg)", got)
	}
	if err := w.CrashDomain("Domain0"); err != nil {
		t.Fatal(err)
	}
	close(gate.gate) // the parked handler unwinds into the dead broker
	<-done

	if err := w.RestartDomainFromJournal("Domain0"); err != nil {
		t.Fatal(err)
	}
	// Presumed abort: the rebuilt broker resumes the journaled
	// compensations — cancel the never-delivered child (settles as
	// unknown downstream), cancel the granted sibling (Domain1
	// propagates to Domain3), release the local admission.
	waitForCleanTables(t, w)
	// The cancel of the never-delivered child frees nothing in any
	// table, so the tables can be clean before it is counted.
	eventually(t, "all three compensations settled", func() bool {
		return w.Metrics["Domain0"].Snapshot()["bb_saga_compensations_total"] >= 3
	})
	if n := w.CounterTotal("bb_rollbacks_abandoned_total"); n != 0 {
		t.Errorf("bb_rollbacks_abandoned_total = %v, want 0 (every compensation must settle)", n)
	}

	// Reconciliation is durable: a second hard crash and rebuild must
	// reproduce the settled table byte-identically, with the saga debt
	// fully retired — nothing resurrects, nothing re-compensates.
	settled := tableSnapshot(t, w, "Domain0")
	if err := w.CrashDomain("Domain0"); err != nil {
		t.Fatal(err)
	}
	if err := w.RestartDomainFromJournal("Domain0"); err != nil {
		t.Fatal(err)
	}
	if got := tableSnapshot(t, w, "Domain0"); !bytes.Equal(settled, got) {
		t.Errorf("table differs after second rebuild\n want: %s\n  got: %s", settled, got)
	}
	if n := grantedCount(w); n != 0 {
		t.Errorf("%d reservations granted after second rebuild, want 0", n)
	}
}

// TestAbandonedRollbackCountedAndRecorded is the regression for the
// abandonment counter and its forced flight-recorder event: when every
// retry of a rollback cancel fails, the broker must say so loudly —
// bb_rollbacks_abandoned_total and a rollback-abandoned event — rather
// than silently strand downstream bandwidth.
func TestAbandonedRollbackCountedAndRecorded(t *testing.T) {
	events := t.TempDir()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  3,
		CallTimeout: 200 * time.Millisecond,
		Broker:      bb.Config{RetryBackoff: time.Millisecond},
		EnableObs:   true,
		EventsDir:   events,
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

	// Kill the next hop: the forward fails, the optimistic admission
	// rolls back, and the compensating cancel toward Domain1 has
	// nowhere to go — every attempt fails until the budget is spent.
	if err := w.StopDomain("Domain1"); err != nil {
		t.Fatal(err)
	}
	res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 5 * units.Mbps}))
	if err == nil && res.Granted {
		t.Fatalf("reserve granted through a dead hop: %+v", res)
	}

	deadline := time.Now().Add(10 * time.Second)
	for w.CounterTotal("bb_rollbacks_abandoned_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("bb_rollbacks_abandoned_total never incremented")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := w.CounterTotal("bb_events_forced_total"); n < 1 {
		t.Errorf("bb_events_forced_total = %v, want >= 1", n)
	}
	found := false
	if err := obs.ReadEvents(filepath.Join(events, "Domain0"), func(e *obs.Event) bool {
		if e.Kind == obs.EventRollbackAbandoned {
			found = true
			return false
		}
		return true
	}); err != nil {
		t.Fatalf("reading flight recorder: %v", err)
	}
	if !found {
		t.Error("no rollback-abandoned event in Domain0's flight recorder")
	}
}

// tapDialer wraps one broker's outbound dialer for the outcome matrix.
// It records the route keys of the cancels the broker sends, and can
// inject the three faults the matrix needs: rewrite the (unsigned) path
// pin of forwarded reserves, swallow the first reply, or sever the n-th
// reserve sent to one address.
type tapDialer struct {
	inner      transport.Dialer
	rewritePin func(pin []string) []string
	loseReply  atomic.Bool
	severAddr  string
	severNth   int64
	reserves   atomic.Int64 // reserves sent to severAddr

	mu      sync.Mutex
	cancels []string
}

func (d *tapDialer) Dial(addr string) (transport.Conn, error) {
	conn, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: conn, d: d, addr: addr}, nil
}

func (d *tapDialer) cancelKeys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.cancels...)
}

type tapConn struct {
	transport.Conn
	d    *tapDialer
	addr string
}

func (c *tapConn) Send(frame []byte) error {
	msg, err := signalling.DecodeMessage(frame)
	if err != nil {
		return c.Conn.Send(frame)
	}
	switch {
	case msg.Cancel != nil:
		c.d.mu.Lock()
		c.d.cancels = append(c.d.cancels, msg.Cancel.RARID)
		c.d.mu.Unlock()
	case msg.Reserve != nil:
		if c.addr == c.d.severAddr && c.d.reserves.Add(1) == c.d.severNth {
			return fmt.Errorf("tap: link to %s severed", c.addr)
		}
		if c.d.rewritePin != nil && len(msg.Reserve.PathPin) > 0 {
			msg.Reserve.PathPin = c.d.rewritePin(msg.Reserve.PathPin)
			if frame, err = msg.Encode(); err != nil {
				return err
			}
		}
	}
	return c.Conn.Send(frame)
}

func (c *tapConn) Recv() ([]byte, error) {
	for {
		frame, err := c.Conn.Recv()
		if err == nil && c.d.loseReply.CompareAndSwap(true, false) {
			continue
		}
		return frame, err
	}
}

// forwardCounters are the counters every matrix row pins, summed over
// the world's brokers after quiesce.
var forwardCounters = [...]string{
	"bb_rollbacks_total", "bb_sagas_started_total", "bb_reroutes_total",
	"bb_reroute_path_skips_total", "bb_splits_total", "bb_split_failures_total",
}

// TestForwardOutcomeMatrix pins what one forward of one reserve can come
// to, row by row: the verdict, the exact reason, who approved or refused
// in stack order, the ingress hop's span, what the counters moved by, the
// route keys a later cancel follows, and that nothing stays booked. The
// expectations were recorded before single-path forwarding, re-routing
// and splitting became one routine, and hold for it unchanged — except
// the last row, which the old code failed: it withdrew a split leg lost
// in transport twice (two sagas, four compensations, two cancels).
func TestForwardOutcomeMatrix(t *testing.T) {
	const mb = units.Mbps
	otherBranch := map[string]string{"Domain1": "Domain2", "Domain2": "Domain1"}
	// The first call on Domain0's connection to Domain1, timed out.
	const lostReply = "bb Domain0: call to /O=Grid/OU=Domain1/CN=bb-1 (attempt 1): signalling: call 1 to /O=Grid/OU=Domain1/CN=bb-1: transport: deadline exceeded"
	rows := []struct {
		name     string
		branches int // 0: a three-domain chain; n: an n-branch fan re-routing over n paths
		split    bool
		caps     map[string]units.Bandwidth
		tap      func(*tapDialer)
		durable  bool // journal to disk, so the row can read its records back

		granted    bool
		reason     string
		stack      []string // approvals bottom-up: "Domain2 ok", "Domain1 no"
		verdict    string   // the ingress hop's span
		spanReason string
		counters   [len(forwardCounters)]float64
		cancels    []string // after a grant: what the ingress's cancel carries downstream ("R" is the RAR id)
		sagaComps  float64  // bb_saga_compensations_total
		destCancel float64  // bb_cancels_total at Domain2, rows that pin it
		rarRecord  string   // normalized bb.rar record at the ingress, hex
		sagaOps    []string // the ingress's saga records after quiesce, in journal order (durable rows)
	}{
		{
			name: "k=1 grant", durable: true,
			granted: true, stack: []string{"Domain2 ok", "Domain1 ok", "Domain0 ok"},
			verdict: obs.VerdictGranted, cancels: []string{"R"},
			rarRecord: "0a015210021a0148221a2f4f3d477269642f4f553d446f6d61696e312f434e3d62622d31321b2f4f3d477269642f4f553d446f6d61696e302f434e3d616c696365420152",
		},
		{
			name: "k=1 downstream denial", caps: map[string]units.Bandwidth{"Domain1": 5 * mb},
			reason: "Domain1: policy denied: rule 2: deny", stack: []string{"Domain1 no", "Domain0 no"},
			verdict: obs.VerdictRolledBack, counters: [...]float64{1, 0, 0, 0, 0, 0},
		},
		{
			name: "k=1 lost response", tap: func(d *tapDialer) { d.loseReply.Store(true) }, durable: true,
			reason: "Domain0: downstream call: " + lostReply, stack: []string{"Domain0 no"},
			verdict: obs.VerdictError, spanReason: lostReply,
			counters: [...]float64{1, 1, 0, 0, 0, 0}, sagaComps: 1,
			sagaOps: []string{"step", "end"},
		},
		{
			name: "hop not on its pin", branches: 2,
			tap: func(d *tapDialer) {
				d.rewritePin = func(pin []string) []string { return []string{pin[0], "DomainX", pin[2]} }
			},
			reason: "Domain2: not on pinned path", stack: []string{"Domain2 no", "Domain0 no"},
			verdict: obs.VerdictRolledBack, counters: [...]float64{3, 0, 1, 0, 0, 0},
		},
		{
			name: "pinned next hop not adjacent", branches: 2,
			tap: func(d *tapDialer) {
				d.rewritePin = func(pin []string) []string {
					return []string{pin[0], pin[1], otherBranch[pin[1]], pin[2]}
				}
			},
			reason: "Domain2: pinned next hop Domain1 is not a neighbour", stack: []string{"Domain2 no", "Domain0 no"},
			verdict: obs.VerdictRolledBack, counters: [...]float64{3, 0, 1, 0, 0, 0},
		},
		{
			name: "re-route grant on attempt 1", branches: 2, durable: true,
			caps:    map[string]units.Bandwidth{"Domain1": 5 * mb},
			granted: true, stack: []string{"Domain3 ok", "Domain2 ok", "Domain0 ok"},
			verdict: obs.VerdictGranted, counters: [...]float64{0, 0, 1, 0, 0, 0},
			cancels:   []string{"R~a1"},
			rarRecord: "0a015210021a0148221a2f4f3d477269642f4f553d446f6d61696e322f434e3d62622d32321b2f4f3d477269642f4f553d446f6d61696e302f434e3d616c6963654204527e6131",
		},
		{
			name: "all paths refused mid-chain, splitting off", branches: 2,
			caps:   map[string]units.Bandwidth{"Domain1": 5 * mb, "Domain2": 5 * mb},
			reason: "Domain2: policy denied: rule 2: deny", stack: []string{"Domain2 no", "Domain0 no"},
			verdict: obs.VerdictRolledBack, counters: [...]float64{1, 0, 1, 0, 0, 0},
		},
		{
			name: "destination refusal stops the walk", branches: 2,
			caps:   map[string]units.Bandwidth{"Domain3": 5 * mb},
			reason: "Domain3: policy denied: rule 2: deny", stack: []string{"Domain3 no", "Domain1 no", "Domain0 no"},
			verdict: obs.VerdictRolledBack, counters: [...]float64{2, 0, 0, 0, 0, 0},
		},
		{
			name: "split grant", branches: 2, split: true, durable: true,
			caps:    map[string]units.Bandwidth{"Domain1": 5 * mb, "Domain2": 5 * mb},
			granted: true, stack: []string{"Domain3 ok", "Domain1 ok", "Domain0 ok", "Domain3 ok", "Domain2 ok", "Domain0 ok"}, // a statement per leg
			verdict: obs.VerdictGranted, counters: [...]float64{0, 1, 1, 0, 1, 0},
			cancels:   []string{"R~s1", "R~s2"},
			rarRecord: "0a015210021a0148321b2f4f3d477269642f4f553d446f6d61696e302f434e3d616c6963654a270a1a2f4f3d477269642f4f553d446f6d61696e312f434e3d62622d311204527e73311880ade2044a270a1a2f4f3d477269642f4f553d446f6d61696e322f434e3d62622d321204527e73321880ade204",
			sagaOps:   []string{"step", "step", "step", "end"},
		},
		{
			name: "split partial denial", branches: 2, split: true, durable: true,
			caps:   map[string]units.Bandwidth{"Domain1": 5 * mb, "Domain2": 3 * mb},
			reason: "Domain2: policy denied: rule 2: deny", stack: []string{"Domain2 no", "Domain0 no"},
			verdict: obs.VerdictRolledBack, counters: [...]float64{1, 1, 1, 0, 0, 1}, sagaComps: 3,
			sagaOps: []string{"step", "step", "step", "comp", "comp", "end"},
		},
		{
			// The second reserve Domain0 sends Domain2 is the split leg (the
			// first is the whole-bandwidth attempt Domain2 refuses). One
			// saga owns the undo: a cancel per leg forwarded plus the local
			// release, and Domain2 hears of the lost leg's key once.
			name: "split leg transport failure", branches: 2, split: true, durable: true,
			caps:   map[string]units.Bandwidth{"Domain1": 5 * mb, "Domain2": 5 * mb},
			tap:    func(d *tapDialer) { d.severAddr, d.severNth = "bb.Domain2", 2 },
			reason: "Domain0: split reservation aborted", stack: []string{"Domain0 no"},
			verdict: obs.VerdictRolledBack, counters: [...]float64{1, 1, 1, 0, 0, 1},
			sagaComps: 3, destCancel: 1,
			sagaOps: []string{"step", "step", "step", "comp", "comp", "end"},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			tap := &tapDialer{}
			if row.tap != nil {
				row.tap(tap)
			}
			cfg := experiment.WorldConfig{
				NumDomains:  3,
				Capacity:    10 * mb,
				Capacities:  row.caps,
				CallTimeout: 150 * time.Millisecond,
				Broker:      bb.Config{RetryBackoff: time.Millisecond, MaxPaths: row.branches},
				EnableObs:   true,
				WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
					if domain != "Domain0" {
						return d
					}
					tap.inner = d
					return tap
				},
			}
			if row.split {
				cfg.Broker.SplitParts = 2
			}
			if row.durable {
				cfg.StateDir, cfg.FsyncPolicy = t.TempDir(), "always"
			}
			var w *experiment.World
			if row.branches > 0 {
				w = multiWorld(t, row.branches, cfg)
			} else {
				var err error
				if w, err = experiment.BuildWorld(cfg); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(w.Close)
			}
			u, err := w.NewUser("alice", "", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(u.Close)

			spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * mb})
			res, err := tracedReserve(w, u, spec)
			if err != nil {
				t.Fatalf("reserve: %v", err)
			}
			if res.Granted != row.granted || res.Reason != row.reason {
				t.Errorf("result: granted=%v reason %q, want granted=%v reason %q", res.Granted, res.Reason, row.granted, row.reason)
			}
			var stack []string
			for _, a := range res.Approvals {
				verdict := " no"
				if a.Granted {
					verdict = " ok"
				}
				stack = append(stack, a.Domain+verdict)
			}
			if fmt.Sprint(stack) != fmt.Sprint(row.stack) {
				t.Errorf("approval stack %v, want %v", stack, row.stack)
			}
			if err := w.VerifyApprovals(res); err != nil {
				t.Errorf("approval signatures: %v", err)
			}
			if len(res.Trace) == 0 {
				t.Fatal("traced reserve returned no spans")
			}
			if span := res.Trace[len(res.Trace)-1]; span.Domain != "Domain0" || span.Verdict != row.verdict || span.Reason != row.spanReason {
				t.Errorf("ingress span: %s verdict %q reason %q, want Domain0 %q %q", span.Domain, span.Verdict, span.Reason, row.verdict, row.spanReason)
			}

			if row.rarRecord != "" {
				records := journalRecords(t, cfg.StateDir, "Domain0")
				var rar []byte
				for _, rec := range records {
					if rec.Op == "bb.rar" {
						rar = rec.Data
					}
				}
				norm, err := bb.NormalizeRARRecord(rar, spec.RARID)
				if err != nil {
					t.Fatalf("bb.rar record: %v", err)
				}
				if got := hex.EncodeToString(norm); got != row.rarRecord {
					t.Errorf("bb.rar record (normalized):\n got %s\nwant %s", got, row.rarRecord)
				}
			}

			if res.Granted {
				if err := u.Cancel("Domain0", spec.RARID); err != nil {
					t.Fatalf("cancel: %v", err)
				}
			}
			// Quiesce: nothing booked anywhere, no compensation still owed.
			waitForCleanTables(t, w)
			eventually(t, "every saga closed", func() bool { return w.CounterTotal("bb_sagas_live") == 0 })
			if row.durable {
				var got []journal.Record
				var ops []string
				for _, rec := range journalRecords(t, cfg.StateDir, "Domain0") {
					if saga.IsSagaOp(rec.Op) {
						got = append(got, rec)
						ops = append(ops, strings.TrimPrefix(rec.Op, "saga."))
					}
				}
				if fmt.Sprint(ops) != fmt.Sprint(row.sagaOps) {
					t.Errorf("saga records %v, want %v", ops, row.sagaOps)
				}
				if row.split && row.granted {
					// Byte for byte what a coordinator journals for the local
					// release, one cancel per leg, and the commit — the saga is
					// the broker's second epoch, after the route registration.
					want := &recordingJournal{}
					ref := saga.New(saga.Options{})
					ref.AttachJournal(want)
					id := "split:" + spec.RARID + "#2"
					ref.Did(id, "release", bb.CompArg("", spec.RARID, res.Handle))
					ref.Did(id, "cancel", bb.CompArg(bbDN(w, "Domain1"), spec.RARID+"~s1", ""))
					ref.Did(id, "cancel", bb.CompArg(bbDN(w, "Domain2"), spec.RARID+"~s2", ""))
					ref.Commit(id)
					if fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want.records) {
						t.Errorf("split saga records:\n got %x\nwant %x", got, want.records)
					}
				}
			}
			for _, d := range w.Domains {
				if bw := w.BBs[d].Table().CommittedAt(spec.Window.Start); bw != 0 {
					t.Errorf("%s: %s still committed", d, bw)
				}
			}
			var counters [len(forwardCounters)]float64
			for i, name := range forwardCounters {
				counters[i] = w.CounterTotal(name)
			}
			if counters != row.counters {
				t.Errorf("counters %v = %v, want %v", forwardCounters, counters, row.counters)
			}
			if got := w.CounterTotal("bb_saga_compensations_total"); got != row.sagaComps {
				t.Errorf("bb_saga_compensations_total = %v, want %v", got, row.sagaComps)
			}
			if row.destCancel != 0 {
				if got := w.Metrics["Domain2"].Snapshot()["bb_cancels_total"]; got != row.destCancel {
					t.Errorf("Domain2 bb_cancels_total = %v, want %v", got, row.destCancel)
				}
			}
			var cancels []string
			for _, key := range tap.cancelKeys() {
				cancels = append(cancels, strings.Replace(key, spec.RARID, "R", 1))
			}
			if !res.Granted {
				cancels = nil // a denial's compensating cancels are counted above
			}
			if fmt.Sprint(cancels) != fmt.Sprint(row.cancels) {
				t.Errorf("cancel route keys %v, want %v", cancels, row.cancels)
			}
		})
	}
}

// recordingJournal keeps what a saga coordinator appends.
type recordingJournal struct{ records []journal.Record }

func (j *recordingJournal) Append(op string, data journal.BinaryRecord) error {
	j.records = append(j.records, journal.Record{Op: op, Data: data.AppendBinary(nil)})
	return nil
}

// journalRecords reads back what a live broker has journaled so far:
// under the "always" policy every record is on disk once Append returns.
func journalRecords(t *testing.T, stateDir, domain string) []journal.Record {
	t.Helper()
	rec, err := journal.Recover(filepath.Join(stateDir, domain))
	if err != nil {
		t.Fatal(err)
	}
	return rec.Records
}

// bbDN is the identity of a domain's broker.
func bbDN(w *experiment.World, domain string) identity.DN {
	d, _ := w.Topo.Domain(domain)
	return d.BBDN
}
