package bb_test

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// grantedCount sums granted reservations across every domain's table.
func grantedCount(w *experiment.World) int {
	n := 0
	for _, broker := range w.BBs {
		for _, r := range broker.Table().All() {
			if r.Status == resv.Granted {
				n++
			}
		}
	}
	return n
}

// waitForCleanTables polls until no domain holds a granted reservation;
// rollback after a lost response is asynchronous, so eventual emptiness
// is the contract.
func waitForCleanTables(t *testing.T, w *experiment.World) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := grantedCount(w)
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d reservations still granted after the rollback window", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// faultAt wraps a single domain's outbound dialer with the given fault
// profile, leaving every other hop healthy.
func faultAt(domain string, cfg transport.FaultConfig) func(string, transport.Dialer) transport.Dialer {
	return func(name string, d transport.Dialer) transport.Dialer {
		if name != domain {
			return d
		}
		return transport.NewFaultyDialer(d, cfg)
	}
}

// TestMidPathHangDeniesWithinDeadline is the headline robustness
// scenario: in a 5-domain chain the mid-path broker's outbound link
// hangs. The user must still receive a signed denial within the
// configured deadline budget, and no domain may keep an optimistic
// admission on its books.
func TestMidPathHangDeniesWithinDeadline(t *testing.T) {
	const hopTimeout = 150 * time.Millisecond
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  5,
		CallTimeout: hopTimeout,
		WrapDialer:  faultAt("Domain1", transport.FaultConfig{HangProb: 1}),
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

	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	start := time.Now()
	res, err := u.ReserveE2E(spec)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("user got a transport error, want a protocol denial: %v", err)
	}
	if res.Granted {
		t.Fatal("reservation granted through a hung mid-path hop")
	}
	// User budget is hopTimeout scaled by path length (clientTo); the
	// denial must land well inside it.
	if budget := hopTimeout * time.Duration(len(w.Domains)+1); elapsed > budget {
		t.Errorf("denial took %v, want < %v", elapsed, budget)
	}
	if len(res.Approvals) == 0 {
		t.Fatal("denial carries no signed approvals")
	}
	if err := w.VerifyApprovals(res); err != nil {
		t.Fatalf("approval signature check: %v", err)
	}
	waitForCleanTables(t, w)
}

// TestLostResponsesRollBackEveryDomain drops every response on the
// source broker's outbound connections: the downstream chain fully
// admits the reservation, but the grant never reaches Domain0. The
// user must see a denial and the best-effort downstream cancel must
// eventually clear all five tables.
func TestLostResponsesRollBackEveryDomain(t *testing.T) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  5,
		CallTimeout: 150 * time.Millisecond,
		WrapDialer:  faultAt("Domain0", transport.FaultConfig{RecvDropProb: 1}),
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

	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil {
		t.Fatalf("user got a transport error, want a protocol denial: %v", err)
	}
	if res.Granted {
		t.Fatal("granted despite the source broker never seeing a response")
	}
	if err := w.VerifyApprovals(res); err != nil {
		t.Fatalf("approval signature check: %v", err)
	}
	waitForCleanTables(t, w)
}

// TestBreakerFailsFastAfterThreshold verifies the per-peer circuit
// breaker: once consecutive timeouts reach the threshold, further
// downstream calls are refused immediately instead of each burning a
// full deadline.
func TestBreakerFailsFastAfterThreshold(t *testing.T) {
	const hopTimeout = 200 * time.Millisecond
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:       2,
		CallTimeout:      hopTimeout,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		WrapDialer:       faultAt("Domain0", transport.FaultConfig{HangProb: 1}),
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

	reserve := func() (*time.Duration, string) {
		spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
		start := time.Now()
		res, err := u.ReserveE2E(spec)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("user got a transport error, want a protocol denial: %v", err)
		}
		if res.Granted {
			t.Fatal("granted through a hung downstream hop")
		}
		return &elapsed, res.Reason
	}

	// Two timed-out calls trip the breaker...
	reserve()
	reserve()
	// ...so the third is refused without waiting out the deadline.
	elapsed, reason := reserve()
	if *elapsed >= hopTimeout {
		t.Errorf("post-trip denial took %v, want fail-fast under %v", *elapsed, hopTimeout)
	}
	if !strings.Contains(reason, "circuit") {
		t.Errorf("denial reason %q does not mention the open circuit", reason)
	}
	waitForCleanTables(t, w)
}

// TestTripOpensABreakerConfiguredOffForOneCooldown: with the breaker
// configured off, a trip holds the circuit open for one cooldown and no
// longer. Past it, on the broker's clock, a failing call is an ordinary
// failure: it opens nothing, and the call after it dials again.
func TestTripOpensABreakerConfiguredOffForOneCooldown(t *testing.T) {
	var skew atomic.Int64
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:      2,
		Clock:           func() time.Time { return time.Now().Add(time.Duration(skew.Load())) },
		BreakerCooldown: time.Minute,
		EnableObs:       true,
		WrapDialer: func(name string, d transport.Dialer) transport.Dialer {
			if name == "Domain0" {
				return deadDialer{}
			}
			return d
		},
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
	reason := func() string {
		t.Helper()
		res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps}))
		if err != nil || res.Granted {
			t.Fatalf("reserve over a dead link: res=%+v err=%v", res, err)
		}
		return res.Reason
	}
	opens := func() float64 { return w.Metrics["Domain0"].Snapshot()["bb_breaker_opens_total"] }

	if err := w.BBs["Domain0"].TripBreaker("Domain1"); err != nil {
		t.Fatal(err)
	}
	if r := reason(); !strings.Contains(r, "circuit") {
		t.Errorf("within the cooldown: %q, want the open circuit", r)
	}
	skew.Store(int64(2 * time.Minute))
	for i := 0; i < 2; i++ {
		if r := reason(); !strings.Contains(r, "link to") {
			t.Errorf("call %d past the cooldown: %q, want the dial's failure", i+1, r)
		}
	}
	if n := opens(); n != 1 {
		t.Errorf("bb_breaker_opens_total = %v, want 1: the trip's", n)
	}
}

// countdownDialer fails its first N dials, then delegates — a
// deterministic transient fault for exercising the retry loop.
type countdownDialer struct {
	inner transport.Dialer
	fails atomic.Int32
}

func (d *countdownDialer) Dial(addr string) (transport.Conn, error) {
	if d.fails.Add(-1) >= 0 {
		return nil, fmt.Errorf("countdown: injected dial failure to %q", addr)
	}
	return d.inner.Dial(addr)
}

// TestRetryRecoversFromTransientDialFailure: with one retry budgeted, a
// single failed dial to the next hop must not surface to the user.
func TestRetryRecoversFromTransientDialFailure(t *testing.T) {
	flaky := &countdownDialer{}
	flaky.fails.Store(1)
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:   3,
		CallTimeout:  time.Second,
		MaxRetries:   1,
		RetryBackoff: 5 * time.Millisecond,
		WrapDialer: func(name string, d transport.Dialer) transport.Dialer {
			if name != "Domain0" {
				return d
			}
			flaky.inner = d
			return flaky
		},
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
	if !res.Granted {
		t.Fatalf("reserve denied despite retry budget: %s", res.Reason)
	}
	if got, want := len(res.Approvals), len(w.Domains); got != want {
		t.Errorf("grant carries %d approvals, want %d", got, want)
	}
	if err := w.VerifyApprovals(res); err != nil {
		t.Fatalf("approval signature check: %v", err)
	}
	if n := grantedCount(w); n != len(w.Domains) {
		t.Errorf("%d granted reservations across the chain, want %d", n, len(w.Domains))
	}
}

// TestDeadPeerRestartRecovers is the regression test for the pooled
// client lifecycle: a mid-chain broker dies (listener and established
// connections), reservations fail while it is down, and after it comes
// back the very next reserve succeeds — the upstream broker must
// notice its cached connection is dead and redial, without itself
// being restarted.
func TestDeadPeerRestartRecovers(t *testing.T) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  3,
		CallTimeout: 200 * time.Millisecond,
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

	reserve := func() (*signalling.ResultPayload, error) {
		spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
		return u.ReserveE2E(spec)
	}

	// Healthy chain: establishes pooled connections end to end.
	res, err := reserve()
	if err != nil || !res.Granted {
		t.Fatalf("baseline reserve: res=%+v err=%v", res, err)
	}

	// Kill the mid-chain broker, established connections included.
	if err := w.StopDomain("Domain1"); err != nil {
		t.Fatal(err)
	}
	res, err = reserve()
	if err != nil {
		t.Fatalf("user got a transport error, want a protocol denial: %v", err)
	}
	if res.Granted {
		t.Fatal("reservation granted through a dead mid-chain broker")
	}

	// Restart it at the same address. The source broker's next call
	// must transparently redial — no broker restarts, no manual reset.
	if err := w.RestartDomain("Domain1"); err != nil {
		t.Fatal(err)
	}
	res, err = reserve()
	if err != nil || !res.Granted {
		t.Fatalf("reserve after peer restart: res=%+v err=%v", res, err)
	}
	if err := w.VerifyApprovals(res); err != nil {
		t.Fatalf("approval signature check after restart: %v", err)
	}
}
