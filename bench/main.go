// Command bench is the repository's benchmark for the reserve path: it
// measures what it costs to carry a signed resource allocation request
// from a user through N domains to a grant backed by bandwidth in
// every domain, end to end and layer by layer, on four named
// workloads. bench/README.md has the workload table, the predictions
// and the measured spreads.
//
//	go run ./bench                                  every workload, end-to-end then traced
//	go run ./bench -workload chain8_reserve -seed 3 -seconds 20 -trace 0
//	go run ./bench -compare a.jsonl b.jsonl         gate b against a
//
// Everything runs in this one process on the in-memory transport with
// zero injected latency: loopback-in-process, no real link, so every
// latency here is CPU and scheduling only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const (
	defaultSeconds = 20
	// declarationFile holds the bounds -compare applies; the benchmark
	// runs from the repository root, where it lives.
	declarationFile = "BENCHMARK.json"
	// resultsDir is where a run leaves its rows and traces and keeps the
	// replicated workload's journals while it runs.
	resultsDir = "bench/out"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, each untraced then traced)")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Int("seconds", defaultSeconds, "length of the timed window, seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out     = flag.String("out", filepath.Join(resultsDir, "rows.jsonl"), "file rows are appended to, one JSON object per line")
		compare = flag.Bool("compare", false, "compare two row files: bench -compare parent.jsonl change.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two row files, got %d arguments", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, declarationFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	}
	if err := preflight(*seconds); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		fatal(err)
	}
	st := machineStamp(resultsDir)

	if *name != "" {
		wl := findWorkload(*name)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		r, err := runOne(wl, *seed, *seconds, *trace == 1, st)
		if err != nil {
			fatal(err)
		}
		if err := appendRow(*out, r); err != nil {
			fatal(err)
		}
		printRow(r)
		// The last line of standard output is the result object.
		metrics := r.EndToEnd
		if *trace == 1 {
			metrics = r.PerLayer
		}
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !r.Correct {
			os.Exit(2)
		}
		return
	}

	// Every workload: the end-to-end row, then the traced row merged
	// into it.
	ok := true
	for i := range workloads {
		wl := &workloads[i]
		r, err := runOne(wl, *seed, *seconds, false, st)
		if err != nil {
			fatal(err)
		}
		tr, err := runOne(wl, *seed, *seconds, true, st)
		if err != nil {
			fatal(err)
		}
		r.PerLayer, r.Ladder, r.TracedCycles = tr.PerLayer, tr.Ladder, tr.TracedCycles
		r.Attempted, r.Failed = r.Attempted+tr.Attempted, r.Failed+tr.Failed
		r.Problems = append(r.Problems, tr.Problems...)
		r.Correct = r.Correct && tr.Correct
		for k, n := range tr.Samples {
			r.Samples[k] = n
		}
		if err := appendRow(*out, r); err != nil {
			fatal(err)
		}
		printRow(r)
		ok = ok && r.Correct
	}
	if !ok {
		os.Exit(2)
	}
}

func runOne(wl *workload, seed int64, seconds int, traced bool, st stamp) (*row, error) {
	if traced {
		return runTraced(wl, seed, seconds, resultsDir, st)
	}
	return runUntraced(wl, seed, seconds, resultsDir, st)
}

// preflight refuses settings under which the numbers would not mean
// what their names say.
func preflight(seconds int) error {
	if raceEnabled {
		return fmt.Errorf("built with -race: the detector multiplies every latency; run the tests with it, not the benchmark")
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	if _, err := os.Stat(declarationFile); err != nil {
		return fmt.Errorf("run from the repository root (go run ./bench): %w", err)
	}
	return nil
}

func appendRow(path string, r *row) error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRow lists every metric by name with its unit and the sample
// count behind it.
func printRow(r *row) {
	s := r.Stamp
	fmt.Printf("== %s  seed=%d  seconds=%d  closed loop, 1 caller\n", r.Workload, r.Seed, r.Seconds)
	fmt.Printf("   %s | %s | nproc=%d GOMAXPROCS=%d | commit %s | journal fs %s\n", s.CPUModel, s.GoVersion, s.NumCPU, s.GOMAXPROCS, s.Commit, s.JournalFS)
	fmt.Printf("   transport: %s\n", s.Transport)
	fmt.Printf("   attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, p := range r.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
	if r.EndToEnd != nil {
		fmt.Printf("   end to end (tracing off; %d cycles in %d windows, %d setups)\n", r.Cycles, r.Samples["window"], r.Samples["setup"])
		fmt.Printf("   the machine ran reference work x%.3f slower than nominal over a window, x%.3f in pieces as long as an acquire, x%.3f a release; times are divided by that\n",
			r.Slowdown["window"], r.Slowdown["acquire_p50_ms"], r.Slowdown["release_p50_ms"])
		for _, d := range endToEnd {
			n := r.Samples["acquire"]
			switch d.Name {
			case "release_p50_ms":
				n = r.Samples["release"]
			case "cycles_per_s", "cpu_ms_per_cycle", "rss_mb":
				n = r.Samples["window"]
			case "setup_s":
				n = r.Samples["setup"]
			}
			fmt.Printf("     %-28s %14.4f %-9s n=%d\n", d.Name, r.EndToEnd[d.Name].Value, d.Unit, n)
		}
	}
	if r.PerLayer != nil {
		fmt.Printf("   per layer (traced run: %d traced cycles, %d complete hop-span sets, %d ladder walks)\n",
			r.TracedCycles, r.Samples["hop_span_sets"], r.Samples["ladder_walks"])
		for _, d := range perLayer {
			fmt.Printf("     %-28s %14.4f %s\n", d.Name, r.PerLayer[d.Name].Value, d.Unit)
		}
		if n := r.Samples["traced_acquire"]; !supported(n, 0.99) {
			fmt.Printf("     (client.*_p99_ms rest on %d samples: fewer than %d lie beyond them)\n", n, minBeyond)
		}
		fmt.Printf("   ladder, acquire phase (share of untraced acquire p50 named: %.0f%%)\n", 100*r.PerLayer["ladder.acquire_share"].Value)
		for _, l := range r.Ladder {
			if l.Phase == "acquire" {
				fmt.Printf("     %-28s %8.1f calls x %10.2f us = %8.4f ms\n", l.Name, l.Calls, l.MeanUS, l.PhaseMS)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
