package experiment

import (
	"testing"
	"time"
)

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
