// Command experiments regenerates every figure of the paper as a
// measured table. Run it with no arguments for the full suite, or
// select one experiment with -exp.
//
//	go run ./cmd/experiments            # everything
//	go run ./cmd/experiments -exp fig4  # just the misreservation attack
//	go run ./cmd/experiments -md        # markdown output (EXPERIMENTS.md)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"e2eqos/internal/experiment"
)

// options are the parsed command line.
type options struct {
	exp         string
	md          bool
	hopLatency  time.Duration
	duration    time.Duration
	trials      int
	callTimeout time.Duration
	faultTrials int
	fleetUsers  int
	fleetSeed   uint64
}

// step is one table of the suite: the -exp names that print it, and
// how it is made. -exp all prints every table but the named-only ones,
// in this order.
type step struct {
	names     []string
	namedOnly bool
	run       func(o options) (*experiment.Table, error)
}

var steps = []step{
	{names: []string{"fig1"}, run: func(options) (*experiment.Table, error) { return experiment.RunFigure1(), nil }},
	{names: []string{"fig3", "fig5"}, run: func(o options) (*experiment.Table, error) {
		return experiment.RunSignallingComparison(o.hopLatency, o.trials)
	}},
	{names: []string{"fig4"}, run: func(o options) (*experiment.Table, error) {
		_, t, err := experiment.RunFigure4(o.duration)
		return t, err
	}},
	{names: []string{"fig4"}, run: func(o options) (*experiment.Table, error) { return experiment.RunFigure4Sweep(o.duration) }},
	{names: []string{"fig5"}, run: func(options) (*experiment.Table, error) { return experiment.RunCoReservation() }},
	{names: []string{"fig6"}, run: func(options) (*experiment.Table, error) { return experiment.RunFigure6() }},
	{names: []string{"fig7"}, run: func(options) (*experiment.Table, error) { return experiment.RunFigure7() }},
	{names: []string{"trust"}, run: func(options) (*experiment.Table, error) { return experiment.RunTrustChain() }},
	{names: []string{"trust-scaling"}, run: func(options) (*experiment.Table, error) { return experiment.RunTrustScaling(), nil }},
	{names: []string{"tunnel"}, run: func(o options) (*experiment.Table, error) { return experiment.RunTunnelScaling(o.hopLatency) }},
	{names: []string{"subflows"}, run: func(o options) (*experiment.Table, error) {
		return experiment.RunSubFlowLoad(o.hopLatency / 10) // sub-flow signalling skips the chain: two ends, one hop
	}},
	{names: []string{"scale"}, run: func(o options) (*experiment.Table, error) {
		dir, err := os.MkdirTemp("", "qos-events-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		return experiment.RunScaleLoad(experiment.ScaleLoadConfig{Latency: o.hopLatency / 10, EventsDir: dir})
	}},
	// At its default 100k-user population the fleet would dominate the
	// suite's wall clock.
	{names: []string{"fleet"}, namedOnly: true, run: func(o options) (*experiment.Table, error) {
		return experiment.RunFleetExperiment(experiment.FleetConfig{Users: o.fleetUsers, Seed: o.fleetSeed})
	}},
	{names: []string{"keydist"}, run: func(options) (*experiment.Table, error) { return experiment.RunKeyDistribution() }},
	{names: []string{"diffserv"}, run: func(o options) (*experiment.Table, error) { return experiment.RunDiffServChain(o.duration) }},
	{names: []string{"faults"}, run: func(o options) (*experiment.Table, error) {
		return experiment.RunFaultSweep(experiment.FaultSweepConfig{CallTimeout: o.callTimeout, Trials: o.faultTrials})
	}},
	{names: []string{"multipath"}, run: func(options) (*experiment.Table, error) { return experiment.RunMultipathExp() }},
	{names: []string{"billing"}, run: func(options) (*experiment.Table, error) { return experiment.RunBilling() }},
	{names: []string{"failover"}, run: func(options) (*experiment.Table, error) {
		dir, err := os.MkdirTemp("", "qos-replicas-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		return experiment.RunFailover(dir)
	}},
}

// names lists every -exp name but all, in the order steps first name
// them.
func names() []string {
	var out []string
	for _, s := range steps {
		for _, n := range s.names {
			if !slices.Contains(out, n) {
				out = append(out, n)
			}
		}
	}
	return out
}

// parseFlags parses args and refuses, by name, a flag whose value no
// experiment can run with. Every error has been written to out, with
// the usage for a malformed flag.
func parseFlags(args []string, out io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.exp, "exp", "all", "experiment to run: "+strings.Join(names(), ", ")+", all")
	fs.BoolVar(&o.md, "md", false, "emit markdown instead of aligned text")
	fs.DurationVar(&o.hopLatency, "latency", 5*time.Millisecond, "one-way signalling latency per hop")
	fs.DurationVar(&o.duration, "duration", 2*time.Second, "simulated traffic duration for fig4")
	fs.IntVar(&o.trials, "trials", 3, "trials per signalling measurement")
	fs.DurationVar(&o.callTimeout, "call-timeout", 100*time.Millisecond, "per-hop signalling deadline for the faults experiment")
	fs.IntVar(&o.faultTrials, "fault-trials", 20, "reservations per cell of the faults sweep")
	fs.IntVar(&o.fleetUsers, "fleet-users", 100_000, "simulated population for the fleet experiment")
	fs.Uint64Var(&o.fleetSeed, "fleet-seed", 1, "RNG seed for the fleet experiment")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	for _, c := range []struct {
		name string
		bad  bool
		want string
	}{
		{"trials", o.trials < 1, "at least 1"},
		{"fault-trials", o.faultTrials < 1, "at least 1"},
		{"fleet-users", o.fleetUsers < 1, "at least 1"},
		{"duration", o.duration <= 0, "positive"},
		{"call-timeout", o.callTimeout <= 0, "positive"},
		{"latency", o.hopLatency < 0, "zero or more"},
		{"exp", o.exp != "all" && !slices.Contains(names(), o.exp), "one of " + strings.Join(names(), ", ") + " or all"},
	} {
		if c.bad {
			err := fmt.Errorf("-%s %s: must be %s", c.name, fs.Lookup(c.name).Value, c.want)
			fmt.Fprintln(out, err)
			return o, err
		}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	for _, s := range steps {
		if o.exp == "all" && s.namedOnly || o.exp != "all" && !slices.Contains(s.names, o.exp) {
			continue
		}
		t, err := s.run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", strings.Join(s.names, "+"), err)
			os.Exit(1)
		}
		if o.md {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.Render())
		}
	}
}
