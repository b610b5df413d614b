package experiment

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// TestFailedBuildLeavesNothingRunning: a domain that fails to build
// takes down the domains built before it. Domain2's empty pool fails
// after Domain0 and Domain1 are serving; afterwards neither answers at
// its address, and the goroutines their servers and journals ran are
// gone.
func TestFailedBuildLeavesNothingRunning(t *testing.T) {
	// Earlier tests' brokers may still be winding down: take the
	// baseline once the count has stopped falling.
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == base {
			break
		}
		base = n
	}
	dialers := map[string]transport.Dialer{}
	_, err := BuildWorld(WorldConfig{
		NumDomains: 3,
		Pools:      map[string]map[string]units.Bandwidth{"Domain2": {"cpu": 0}},
		StateDir:   t.TempDir(),
		EventsDir:  t.TempDir(),
		WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
			dialers[domain] = d
			return d
		},
	})
	if err == nil {
		t.Fatal("BuildWorld accepted an empty pool")
	}
	for _, domain := range []string{"Domain0", "Domain1"} {
		if conn, err := dialers["Domain1"].Dial(addrOf(domain)); err == nil {
			conn.Close()
			t.Errorf("%s still serves after the build failed", domain)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, started with %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorldViewsFollowFailover: once a follower is promoted, every view
// the World keeps of the domain — its broker, data plane, metrics
// registry and flight recorder — is the promoted replica's, so
// w.Metrics[d] and CounterTotal read the live leader, not the dead one.
func TestWorldViewsFollowFailover(t *testing.T) {
	w, err := BuildWorld(WorldConfig{
		NumDomains:  2,
		Replicas:    3,
		StateDir:    t.TempDir(),
		EventsDir:   t.TempDir(),
		EnableObs:   true,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	src := w.SourceDomain()
	killed, err := w.KillLeader(src)
	if err != nil {
		t.Fatal(err)
	}
	promoted, err := w.PromoteAny(src)
	if err != nil {
		t.Fatal(err)
	}
	if promoted == killed || w.LeaderOf(src) != promoted {
		t.Fatalf("killed %d, promoted %d, LeaderOf says %d", killed, promoted, w.LeaderOf(src))
	}
	m := w.members[src][promoted]
	if w.BBs[src] != m.broker || w.ReplicaBB(src, promoted) != m.broker {
		t.Error("BBs does not show the promoted replica")
	}
	if w.Planes[src] != m.cfg.Plane {
		t.Error("Planes does not show the promoted replica's data plane")
	}
	if w.Metrics[src] != m.broker.MetricsRegistry() {
		t.Error("Metrics does not show the promoted replica's registry")
	}
	if got := w.CounterTotal("bb_repl_elections_total"); got != 1 {
		t.Errorf("CounterTotal(bb_repl_elections_total) = %v, want the promoted leader's 1", got)
	}
}

// TestUnreplicatedDomainIsAGroupOfOne: an unreplicated domain's broker
// is replica 0 of its group, and that replica fronts it.
func TestUnreplicatedDomainIsAGroupOfOne(t *testing.T) {
	w, err := BuildWorld(WorldConfig{NumDomains: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	for _, d := range w.Domains {
		if w.LeaderOf(d) != 0 || w.ReplicaBB(d, 0) != w.BBs[d] || w.ReplicaBB(d, 1) != nil {
			t.Errorf("%s: LeaderOf %d, replica 0 %p, replica 1 %p, BBs %p", d, w.LeaderOf(d), w.ReplicaBB(d, 0), w.ReplicaBB(d, 1), w.BBs[d])
		}
	}
	if w.LeaderOf("Nowhere") != -1 {
		t.Error("LeaderOf an unknown domain is not -1")
	}
	if _, err := w.KillLeader(w.SourceDomain()); err == nil {
		t.Error("KillLeader accepted a group of one")
	}
}

// TestUserRedialsAfterRestart: a user whose source broker crashed and
// was rebuilt from its journal finds its connection closed once, and
// the next call redials the new broker without the user being closed.
func TestUserRedialsAfterRestart(t *testing.T) {
	w, err := BuildWorld(WorldConfig{NumDomains: 2, StateDir: t.TempDir(), FsyncPolicy: "always", CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	if res, err := u.ReserveE2E(spec); err != nil || !res.Granted {
		t.Fatalf("reserve: %v %+v", err, res)
	}
	src := w.SourceDomain()
	if err := w.CrashDomain(src); err != nil {
		t.Fatal(err)
	}
	if err := w.RestartDomainFromJournal(src); err != nil {
		t.Fatal(err)
	}
	if err := u.Cancel(src, spec.RARID); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("first cancel after the restart: %v, want the closed connection", err)
	}
	if err := u.Cancel(src, spec.RARID); err != nil {
		t.Fatalf("second cancel after the restart: %v", err)
	}
}
