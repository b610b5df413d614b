package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// row is one workload's result on one machine: the ledger's unit.
type row struct {
	Workload string `json:"workload"`
	Stamp    stamp  `json:"stamp"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	// Cycles is how many acquire+release pairs the untraced run
	// completed in its metered windows; TracedCycles the same for the
	// traced world of the traced run.
	Cycles       int `json:"cycles,omitempty"`
	TracedCycles int `json:"traced_cycles,omitempty"`
	Attempted    int `json:"attempted"`
	Failed       int `json:"failed"`
	// Correct is false when any output check failed; Problems says
	// which.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`

	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	// Samples is the sample count behind each group of figures.
	Samples map[string]int `json:"samples"`
	// Slowdown is, for each end-to-end time, how much slower than
	// nominal the machine ran reference work of that length during the
	// untraced run; the time has been divided by it. "window" is the
	// slowdown of work a window long, which the per-window figures
	// (cycles per second, CPU per cycle) were corrected by.
	Slowdown map[string]float64 `json:"slowdown,omitempty"`
	// Ladder is the traced run's rung-by-rung split of one cycle.
	Ladder []layer `json:"ladder,omitempty"`
}

// The untraced run sets the world up several times; setup_s is the
// median.
const (
	// minSetups worlds are always built; more follow, up to maxSetups,
	// until setupBudget has been spent, so that a set-up of tens of
	// milliseconds is timed often enough for its median to hold still.
	minSetups   = 3
	maxSetups   = 12
	setupBudget = 2 * time.Second
)

// runUntraced measures the end-to-end metrics: tracing off, no
// registries, seconds metered windows of one second.
func runUntraced(wl *workload, seed int64, seconds int, outDir string, st stamp) (*row, error) {
	r := &row{Workload: wl.name, Stamp: st, Seed: seed, Seconds: seconds, Samples: map[string]int{}}
	m, err := newMeter()
	if err != nil {
		return nil, err
	}
	// Every time below is stated at the reference machine's nominal
	// speed: measured, divided by how much slower the machine ran the
	// reference work at the time — right after each set-up, and over
	// the metered windows.
	var in *instance
	var setups []float64
	begun := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begun) < setupBudget); i++ {
		if in != nil {
			in.close()
			runtime.GC()
		}
		t0 := time.Now()
		in, err = wl.setup(seed, nil, outDir)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", wl.name, err)
		}
		took := time.Since(t0)
		setups = append(setups, took.Seconds()/slowdownAt(m.ref.time(), took))
	}
	defer in.close()

	in.measure(m, time.Duration(seconds)*time.Second)

	r.Cycles, r.Attempted, r.Failed = in.completed, in.attempted, in.failed
	r.Problems = in.check()
	r.Correct = len(r.Problems) == 0
	r.Samples["acquire"], r.Samples["release"] = len(in.acquire), len(in.release)
	r.Samples["setup"], r.Samples["window"] = len(setups), len(m.windows)

	// Each latency is corrected by the slowdown of reference work as
	// long as itself; what is measured over a window, by a window's.
	values := map[string]float64{
		"acquire_p50_ms": percentileMS(in.acquire, 0.50),
		"release_p50_ms": percentileMS(in.release, 0.50),
	}
	r.Slowdown = map[string]float64{"window": m.slowdown(window)}
	for name, v := range values {
		r.Slowdown[name] = m.slowdown(time.Duration(v * float64(time.Millisecond)))
		values[name] = v / r.Slowdown[name]
	}
	cycles := float64(max(in.completed, 1))
	values["cycles_per_s"] = r.Slowdown["window"] * m.overWindows(func(w windowCost) float64 {
		return float64(w.cycles) / (w.wall - w.gen).Seconds()
	})
	values["cpu_ms_per_cycle"] = m.overWindows(func(w windowCost) float64 {
		return ms(w.cpu) / float64(w.cycles)
	}) / r.Slowdown["window"]
	values["allocs_per_cycle"] = float64(m.mallocs) / cycles
	values["alloc_kb_per_cycle"] = float64(m.bytes) / 1024 / cycles
	values["rss_mb"] = m.overWindows(func(w windowCost) float64 { return w.rssMB })
	values["setup_s"] = median(setups)
	r.EndToEnd = withUnits(endToEnd, values)
	return r, nil
}

const (
	// tracedBlocks is how many times the traced run alternates between
	// the untraced and the traced world; alternation cancels drift in
	// the machine's speed out of trace.overhead_ratio.
	tracedBlocks = 6
	// liveShare is the part of the traced run's seconds spent on the
	// two live worlds; the ladder gets the rest.
	liveShare = 0.6
)

// counts are the counters a traced world exposes at its boundaries.
type counts struct {
	msgs, bytes      int64
	appends, fsyncs  int64
	retries, replays float64
	rollbacks        float64
	abandoned        float64
	commitTimeouts   float64
}

func (in *instance) counts() counts {
	w := in.world
	c := counts{
		msgs: w.Net.Messages(), bytes: w.Net.Bytes(),
		retries:        w.CounterTotal("bb_retries_total"),
		replays:        w.CounterTotal("bb_replays_total"),
		rollbacks:      w.CounterTotal("bb_rollbacks_total"),
		abandoned:      w.CounterTotal("bb_rollbacks_abandoned_total"),
		commitTimeouts: w.CounterTotal("bb_repl_commit_timeouts_total"),
	}
	for _, name := range w.Domains {
		s := w.BBs[name].Journal().Stats()
		c.appends += s.Appends
		c.fsyncs += s.Fsyncs
	}
	return c
}

// replLagMax reads the bb_repl_lag_records gauge of every leader.
func (in *instance) replLagMax() float64 {
	var lag float64
	for _, snap := range in.world.MetricsSnapshot() {
		lag = max(lag, snap["bb_repl_lag_records"])
	}
	return lag
}

// watchLag polls the follower lag into *maxLag until the returned
// function is called; that function returns once polling has stopped.
func (in *instance) watchLag(maxLag *float64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				*maxLag = max(*maxLag, in.replLagMax())
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// runTraced produces the per-layer metrics: an untraced and a traced
// world run the same cycles in alternating blocks, then the ladder
// walks the same requests off the live path. A replicated workload
// brings a third world into the alternation, the same chain with
// memory-only brokers, so that what durability and replication add is
// read off the same minutes of the same machine.
func runTraced(wl *workload, seed int64, seconds int, outDir string, st stamp) (*row, error) {
	r := &row{Workload: wl.name, Stamp: st, Seed: seed, Seconds: seconds, Samples: map[string]int{}}
	base, err := wl.setup(seed, nil, outDir)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", wl.name, err)
	}
	defer base.close()
	tr := newTracer()
	traced, err := wl.setup(seed, tr, outDir)
	if err != nil {
		return nil, fmt.Errorf("%s: traced setup: %w", wl.name, err)
	}
	defer traced.close()
	tr.reset()
	worlds := []*instance{base, traced}
	var memory *instance
	if wl.replicas > 1 {
		plain := *wl
		plain.replicas = 0
		if memory, err = plain.setup(seed, nil, outDir); err != nil {
			return nil, fmt.Errorf("%s: memory-only setup: %w", wl.name, err)
		}
		defer memory.close()
		worlds = append(worlds, memory)
	}

	block := time.Duration(float64(seconds) * liveShare / float64(len(worlds)*tracedBlocks) * float64(time.Second))
	before := traced.counts()
	m, err := newMeter()
	if err != nil {
		return nil, err
	}
	var lagMax float64
	stopLag := func() {}
	if wl.replicas > 1 {
		stopLag = traced.watchLag(&lagMax)
	}
	for b := 0; b < tracedBlocks; b++ {
		for _, in := range worlds {
			if in == traced {
				in.measure(m, block)
			} else {
				in.measure(nil, block)
			}
		}
	}
	stopLag()
	after := traced.counts()

	r.TracedCycles = traced.completed
	for _, in := range worlds {
		r.Attempted, r.Failed = r.Attempted+in.attempted, r.Failed+in.failed
		r.Problems = append(r.Problems, in.check()...)
	}
	acquire, _, incomplete := tr.assemble(wl.hops)
	if incomplete > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d cycle phases are missing a hop span", incomplete))
	}
	tableLen, liveFlows := 0, 0
	for _, name := range traced.world.Domains {
		tableLen = max(tableLen, traced.world.BBs[name].Table().Len())
	}
	if wl.batch > 0 {
		if ep, ok := traced.world.BBs[traced.world.SourceDomain()].Tunnel(traced.tunnelRAR); ok {
			liveFlows = ep.Len()
		}
	}
	// The ladder wants the machine to itself.
	for _, in := range worlds {
		in.close()
	}
	runtime.GC()

	lad, err := runLadder(wl, seed, tr, time.Duration(float64(seconds)*(1-liveShare)*float64(time.Second)), outDir)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	r.Correct = len(r.Problems) == 0
	r.Samples["untraced_acquire"], r.Samples["traced_acquire"] = len(base.acquire), len(traced.acquire)
	r.Samples["hop_span_sets"], r.Samples["ladder_walks"] = len(acquire), lad.iters
	r.Ladder = lad.layers

	cycles := float64(max(traced.completed, 1))
	v := lad.metrics
	untracedP50, tracedP50 := percentileMS(base.acquire, 0.5), percentileMS(traced.acquire, 0.5)
	if untracedP50 > 0 {
		v["trace.overhead_ratio"] = tracedP50 / untracedP50
		v["ladder.acquire_share"] = v["ladder.acquire_ms_sum"] / untracedP50
	}
	if memory != nil {
		if p50 := percentileMS(memory.acquire, 0.5); p50 > 0 {
			v["bb.replicated_over_memory"] = untracedP50 / p50
		}
	}
	var selfSum, first, last, clientSum time.Duration
	for _, ht := range acquire {
		clientSum += ht.client
		for _, d := range ht.self {
			selfSum += d
		}
		first += ht.self[0]
		last += ht.self[len(ht.self)-1]
	}
	if n := time.Duration(len(acquire)); n > 0 {
		v["bb.hop_self_ms_mean"] = ms(selfSum/n) / float64(wl.hops)
		v["bb.hop_self_ms_first"] = ms(first / n)
		v["bb.hop_self_ms_last"] = ms(last / n)
		v["bb.unattributed_ms_per_hop"] = (ms(clientSum/n) - v["ladder.acquire_ms_sum"]) / float64(wl.hops)
	}
	v["resv.table_len"] = float64(tableLen)
	v["tunnel.live_subflows"] = float64(liveFlows)
	v["journal.records_per_cycle"] = float64(after.appends-before.appends) / cycles
	v["journal.fsyncs_per_cycle"] = float64(after.fsyncs-before.fsyncs) / cycles
	v["bb.repl_lag_records_max"] = lagMax
	v["transport.msgs_per_cycle"] = float64(after.msgs-before.msgs) / cycles
	v["transport.bytes_per_cycle"] = float64(after.bytes-before.bytes) / cycles
	v["bb.retries"] = after.retries - before.retries
	v["bb.replays"] = after.replays - before.replays
	v["bb.rollbacks"] = after.rollbacks - before.rollbacks
	v["bb.rollbacks_abandoned"] = after.abandoned - before.abandoned
	v["bb.repl_commit_timeouts"] = after.commitTimeouts - before.commitTimeouts
	v["client.acquire_p95_ms"] = percentileMS(traced.acquire, 0.95)
	v["client.acquire_p99_ms"] = percentileMS(traced.acquire, 0.99)
	v["client.acquire_max_ms"] = percentileMS(traced.acquire, 1)
	v["client.release_p99_ms"] = percentileMS(traced.release, 0.99)
	v["client.gen_share"] = traced.gen.Seconds() / m.wall.Seconds()
	v["runtime.gc_cycles"] = float64(m.gcs) / cycles * 1000
	v["runtime.gc_pause_ms"] = ms(m.gcPause) / cycles * 1000
	v["runtime.peak_rss_mb"] = statusMB("VmHWM:")
	v["client.release_p95_ms"] = percentileMS(traced.release, 0.95)
	v["machine.slowdown"] = m.slowdown(window)
	r.PerLayer = withUnits(perLayer, v)

	tracePath := filepath.Join(outDir, wl.name+".trace.json")
	if err := writeTrace(tracePath, traceFile{
		Workload: wl.name, Stamp: st,
		Note:   "hop -1 is the load generator; a hop span k is broker k's downstream call (broker k+1's inbound span); times are ns since the tracer started; ladder spans are the first walk only",
		Spans:  tr.spans,
		Ladder: lad.spans, Layers: lad.layers,
	}); err != nil {
		return nil, err
	}
	return r, nil
}
