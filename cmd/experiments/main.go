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

// parseFlags parses args and refuses, by name, a flag whose value no
// experiment can run with. Every error has been written to out, with
// the usage for a malformed flag.
func parseFlags(args []string, out io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.exp, "exp", "all", "experiment to run: fig1, fig3, fig4, fig5, fig6, fig7, trust, trust-scaling, tunnel, subflows, scale, fleet, keydist, billing, diffserv, faults, multipath, failover, all")
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

	run := func(name string) bool { return o.exp == "all" || o.exp == name }
	emit := func(t *experiment.Table) {
		if o.md {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.Render())
		}
	}
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", name, err)
		os.Exit(1)
	}

	if run("fig1") {
		emit(experiment.RunFigure1())
	}
	if run("fig3") || run("fig5") {
		t, err := experiment.RunSignallingComparison(o.hopLatency, o.trials)
		if err != nil {
			fail("fig3+fig5", err)
		}
		emit(t)
	}
	if run("fig4") {
		_, t, err := experiment.RunFigure4(o.duration)
		if err != nil {
			fail("fig4", err)
		}
		emit(t)
		sweep, err := experiment.RunFigure4Sweep(o.duration)
		if err != nil {
			fail("fig4-sweep", err)
		}
		emit(sweep)
	}
	if run("fig5") {
		t, err := experiment.RunCoReservation()
		if err != nil {
			fail("fig5-coreservation", err)
		}
		emit(t)
	}
	if run("fig6") {
		t, err := experiment.RunFigure6()
		if err != nil {
			fail("fig6", err)
		}
		emit(t)
	}
	if run("fig7") {
		t, err := experiment.RunFigure7()
		if err != nil {
			fail("fig7", err)
		}
		emit(t)
	}
	if run("trust") {
		t, err := experiment.RunTrustChain()
		if err != nil {
			fail("trust", err)
		}
		emit(t)
	}
	if run("trust-scaling") {
		emit(experiment.RunTrustScaling())
	}
	if run("tunnel") {
		t, err := experiment.RunTunnelScaling(o.hopLatency)
		if err != nil {
			fail("tunnel", err)
		}
		emit(t)
	}
	if run("subflows") {
		t, err := experiment.RunSubFlowLoad(o.hopLatency / 10) // sub-flow signalling skips the chain: two ends, one hop
		if err != nil {
			fail("subflows", err)
		}
		emit(t)
	}
	if run("scale") {
		dir, err := os.MkdirTemp("", "qos-events-")
		if err != nil {
			fail("scale", err)
		}
		defer os.RemoveAll(dir)
		t, err := experiment.RunScaleLoad(experiment.ScaleLoadConfig{
			Latency:   o.hopLatency / 10,
			EventsDir: dir,
		})
		if err != nil {
			fail("scale", err)
		}
		emit(t)
	}
	// The fleet runs only when asked for by name: at its default
	// 100k-user population it dominates the suite's wall clock.
	if o.exp == "fleet" {
		t, err := experiment.RunFleetExperiment(experiment.FleetConfig{
			Users: o.fleetUsers,
			Seed:  o.fleetSeed,
		})
		if err != nil {
			fail("fleet", err)
		}
		emit(t)
	}

	if run("keydist") {
		t, err := experiment.RunKeyDistribution()
		if err != nil {
			fail("keydist", err)
		}
		emit(t)
	}
	if run("diffserv") {
		t, err := experiment.RunDiffServChain(o.duration)
		if err != nil {
			fail("diffserv", err)
		}
		emit(t)
	}
	if run("faults") {
		t, err := experiment.RunFaultSweep(experiment.FaultSweepConfig{
			CallTimeout: o.callTimeout,
			Trials:      o.faultTrials,
		})
		if err != nil {
			fail("faults", err)
		}
		emit(t)
	}
	if run("multipath") {
		t, err := experiment.RunMultipathExp()
		if err != nil {
			fail("multipath", err)
		}
		emit(t)
	}
	if run("billing") {
		t, err := experiment.RunBilling()
		if err != nil {
			fail("billing", err)
		}
		emit(t)
	}
	if run("failover") {
		dir, err := os.MkdirTemp("", "qos-replicas-")
		if err != nil {
			fail("failover", err)
		}
		defer os.RemoveAll(dir)
		t, err := experiment.RunFailover(dir)
		if err != nil {
			fail("failover", err)
		}
		emit(t)
	}
}
