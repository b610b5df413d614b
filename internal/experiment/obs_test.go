package experiment

import (
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/obs"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// TestMetricsLintRegistries is the world half of the metrics-lint
// tier: every metric name actually registered by a running system —
// broker and transport — must be lowercase_snake, counters must end
// in _total, every metric must carry non-empty HELP text, and no
// registry may hold a duplicate (registration panics on violations,
// so building the world already proves most of it; the walk below
// keeps the rules visible and covers renames).
func TestMetricsLintRegistries(t *testing.T) {
	w, err := BuildWorld(WorldConfig{NumDomains: 3, EnableObs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	snake := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	check := func(owner string, reg *obs.Registry) {
		names, help := exposed(reg)
		if len(names) == 0 {
			t.Errorf("%s registry is empty", owner)
		}
		seen := make(map[string]bool)
		for _, n := range names {
			if !snake.MatchString(n) {
				t.Errorf("%s metric %q is not lowercase_snake", owner, n)
			}
			if seen[n] {
				t.Errorf("%s metric %q appears twice", owner, n)
			}
			seen[n] = true
			if help[n] == "" {
				t.Errorf("%s metric %q has empty HELP text", owner, n)
			}
		}
	}
	for domain, reg := range w.Metrics {
		check(domain, reg)
	}
	check("network", w.NetMetrics)

	// A replica group registers the replication gauges on top.
	rw, err := BuildWorld(WorldConfig{NumDomains: 1, Replicas: 2, StateDir: t.TempDir(), EnableObs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	for domain, reg := range rw.Metrics {
		check(domain+" (replicated)", reg)
		_, help := exposed(reg)
		for _, name := range []string{"bb_repl_stream_resyncs_total", "bb_repl_inflight_frames"} {
			if help[name] == "" {
				t.Errorf("%s: %s is not registered", domain, name)
			}
		}
	}
}

// exposed reads a registry's exposition: every metric's name, from its
// TYPE line, and its HELP text.
func exposed(reg *obs.Registry) (names []string, help map[string]string) {
	var sb strings.Builder
	reg.WriteText(&sb)
	help = make(map[string]string)
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			switch f[1] {
			case "TYPE":
				names = append(names, f[2])
			case "HELP":
				help[f[2]] = strings.Join(f[3:], " ")
			}
		}
	}
	return names, help
}

// TestFaultSweepReportsObsColumns runs the faults experiment at one
// trial per cell and checks the table carries the broker metric
// columns — the acceptance criterion that a loss sweep answers "what
// machinery fired" from metrics alone.
func TestFaultSweepReportsObsColumns(t *testing.T) {
	tbl, err := RunFaultSweep(FaultSweepConfig{Trials: 1, CallTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(tbl.Columns, " ")
	for _, col := range []string{"bb retries", "breaker opens", "rollbacks", "replays"} {
		if !strings.Contains(joined, col) {
			t.Errorf("fault table missing column %q (have %s)", col, joined)
		}
	}
	if want := len(faultProbs) * len(faultRetryBudgets); len(tbl.Rows) != want {
		t.Fatalf("want %d rows, got %d", want, len(tbl.Rows))
	}
}

// TestFaultyWorldCountsRobustnessMetrics drives traced reservations
// through a lossy chain until the retry machinery has demonstrably
// fired, then asserts the world-level counters recorded it.
func TestFaultyWorldCountsRobustnessMetrics(t *testing.T) {
	seed := int64(7)
	var drops atomic.Int64
	w, err := BuildWorld(WorldConfig{
		NumDomains:  3,
		EnableObs:   true,
		CallTimeout: 60 * time.Millisecond,
		Broker:      bb.Config{MaxRetries: 2, RetryBackoff: 2 * time.Millisecond},
		WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
			fd := transport.NewFaultyDialer(d, lossScript(seed, 0.15, &drops))
			seed++
			return fd
		},
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

	deadline := time.Now().Add(20 * time.Second)
	for w.CounterTotal("bb_retries_total") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no retry recorded despite 15% loss on every link")
		}
		spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
		_, _ = u.ReserveE2E(spec)
	}
	if got := w.CounterTotal("bb_rars_received_total"); got == 0 {
		t.Error("no RARs counted as received")
	}
	if drops.Load() == 0 {
		t.Error("retries recorded, but the loss scripts dropped nothing")
	}
	// Sanity on the aggregated snapshot: every domain reports.
	if snaps := w.MetricsSnapshot(); len(snaps) != len(w.Domains) {
		t.Errorf("snapshot covers %d domains, want %d", len(snaps), len(w.Domains))
	}
}
