package main

// metricDef is one metric as BENCHMARK.json declares it. The catalogue
// below and BENCHMARK.json must agree; a unit test holds them together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is what a caller or operator of the brokers would see. A
// bound is the share of the parent's median by which the metric may
// worsen before a change counts as a regression; each was confirmed
// with A/A runs (bench/README.md has the measured spreads).
//
// Failures are not a metric here: every row carries attempted and
// failed counts, the workloads are chosen so that nothing fails, and a
// failed operation is missing from every latency figure.
var endToEnd = []metricDef{
	{Name: "acquire_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "release_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_cycle", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_cycle", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_kb_per_cycle", Unit: "KiB", Better: "lower", Bound: 0.03},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer metrics come from the traced run; the dotted prefix is the
// module under internal/ (ladder, client, runtime and trace are the
// benchmark's own). A layer that a workload does not touch reads 0.
var perLayer = []metricDef{
	{Name: "core.verify_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "core.verify_ms_last_hop", Unit: "ms", Better: "lower"},
	{Name: "core.extend_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "core.build_rar_ms", Unit: "ms", Better: "lower"},
	{Name: "envelope.decode_us", Unit: "us", Better: "lower"},
	{Name: "envelope.wire_bytes_last_hop", Unit: "B", Better: "lower"},
	{Name: "resv.admit_us", Unit: "us", Better: "lower"},
	{Name: "resv.available_us", Unit: "us", Better: "lower"},
	{Name: "resv.cancel_us", Unit: "us", Better: "lower"},
	{Name: "resv.admit_alloc_kb", Unit: "KiB", Better: "lower"},
	{Name: "resv.table_len", Unit: "count", Better: "lower"},
	{Name: "journal.append_us", Unit: "us", Better: "lower"},
	{Name: "journal.records_per_cycle", Unit: "count", Better: "lower"},
	{Name: "journal.fsyncs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "bb.repl_lag_records_max", Unit: "count", Better: "lower"},
	{Name: "signalling.encode_us", Unit: "us", Better: "lower"},
	{Name: "signalling.decode_us", Unit: "us", Better: "lower"},
	{Name: "signalling.validate_us", Unit: "us", Better: "lower"},
	{Name: "signalling.sign_approval_us", Unit: "us", Better: "lower"},
	{Name: "signalling.frame_bytes", Unit: "B", Better: "lower"},
	{Name: "transport.msgs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_cycle", Unit: "B", Better: "lower"},
	{Name: "transport.rtt_us", Unit: "us", Better: "lower"},
	{Name: "tunnel.allocate_ns", Unit: "ns", Better: "lower"},
	{Name: "tunnel.release_ns", Unit: "ns", Better: "lower"},
	{Name: "tunnel.live_subflows", Unit: "count", Better: "lower"},
	{Name: "policysrv.decide_us", Unit: "us", Better: "lower"},
	{Name: "topology.next_hop_ns", Unit: "ns", Better: "lower"},
	{Name: "bb.hop_self_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "bb.hop_self_ms_first", Unit: "ms", Better: "lower"},
	{Name: "bb.hop_self_ms_last", Unit: "ms", Better: "lower"},
	{Name: "bb.unattributed_ms_per_hop", Unit: "ms", Better: "lower"},
	{Name: "bb.retries", Unit: "count", Better: "lower"},
	{Name: "bb.replays", Unit: "count", Better: "lower"},
	{Name: "bb.rollbacks", Unit: "count", Better: "lower"},
	{Name: "bb.rollbacks_abandoned", Unit: "count", Better: "lower"},
	{Name: "bb.repl_commit_timeouts", Unit: "count", Better: "lower"},
	{Name: "bb.replicated_over_memory", Unit: "ratio", Better: "lower"},
	{Name: "ladder.acquire_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "ladder.release_ms_sum", Unit: "ms", Better: "lower"},
	{Name: "ladder.acquire_share", Unit: "ratio", Better: "higher"},
	{Name: "client.acquire_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.acquire_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.acquire_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.release_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.release_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.gen_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "1/kcycle", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms/kcycle", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "machine.slowdown", Unit: "ratio", Better: "lower"},
}

// withUnits turns raw values into metrics in catalogue order; a name
// the values do not hold reads 0.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
