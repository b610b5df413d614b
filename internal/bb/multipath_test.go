package bb_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/obs"
	"e2eqos/internal/resv"
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
				CallTimeout:  2 * time.Second,
				RetryBackoff: time.Millisecond,
				MaxPaths:     3,
				EnableObs:    true,
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
		CallTimeout:      2 * time.Second,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		MaxPaths:         3,
		EnableObs:        true,
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
		MaxPaths:    3,
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
		MaxPaths:    2,
		SplitParts:  2,
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
		CallTimeout:  2 * time.Second,
		RetryBackoff: time.Millisecond,
		MaxPaths:     2,
		SplitParts:   2,
		EnableObs:    true,
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
// the commit/abort record still unwritten.
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
// downstream and every compensation step hit the journal, before any
// commit or abort record. The broker rebuilt from that journal must
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
		CallTimeout:  time.Second,
		RetryBackoff: 5 * time.Millisecond,
		MaxPaths:     2,
		SplitParts:   2,
		EnableObs:    true,
		StateDir:     t.TempDir(),
		FsyncPolicy:  "always",
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
	// Saga state on disk at this instant: begin, the release step, both
	// cancel steps — no commit, no abort. The sibling leg via Domain1
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
		NumDomains:   3,
		CallTimeout:  200 * time.Millisecond,
		RetryBackoff: time.Millisecond,
		EnableObs:    true,
		EventsDir:    events,
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
