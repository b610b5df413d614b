package bb

import (
	"fmt"

	"e2eqos/internal/obs"
)

// bbMetrics is the broker's pre-resolved metric handles. With no
// registry configured every handle is nil and every operation no-ops,
// so the instrumented hot path costs a nil check per event.
type bbMetrics struct {
	// RAR lifecycle counters.
	received  *obs.Counter // reserve requests received
	forwarded *obs.Counter // reserves forwarded downstream
	granted   *obs.Counter // reserves granted at this hop
	denied    *obs.Counter // reserves denied or failed at this hop
	cancels   *obs.Counter // cancel requests received
	// layerChecks counts the envelope-layer signatures verified in
	// accepted reserve chains: 2N-1 across a path of N domains when
	// every hop but the destination vouches (DESIGN.md §6.11).
	layerChecks *obs.Counter
	// vouched counts the inner layers of accepted reserve chains taken
	// on the channel peer's signature without a check of their own.
	vouched *obs.Counter
	// signatures counts the signatures this broker made: the layers it
	// sealed onward, the grants it signed at the end of the line and the
	// refusals it signed. Across a granted path of N domains they are N.
	signatures *obs.Counter
	// Robustness-layer counters.
	rollbacks       *obs.Counter // optimistic admissions rolled back
	retries         *obs.Counter // downstream call retries
	breakerOpens    *obs.Counter // circuit-breaker open transitions
	replays         *obs.Counter // idempotent replays of recorded outcomes
	clientEvictions *obs.Counter // pooled peer clients retired after faults
	// Multipath routing counters.
	reroutes     *obs.Counter // RARs re-forwarded onto an alternate disjoint path
	rerouteSkips *obs.Counter // candidate paths skipped because the first hop's breaker was open
	splits       *obs.Counter // reservations split across disjoint paths
	splitFails   *obs.Counter // split attempts rolled back after a partial denial or failure
	// Saga-layer counters.
	sagasStarted       *obs.Counter // multi-step sagas begun
	sagasCommitted     *obs.Counter // sagas whose forward path fully succeeded
	sagasAborted       *obs.Counter // sagas aborted into compensation
	sagaCompensations  *obs.Counter // compensations executed to completion
	rollbacksAbandoned *obs.Counter // compensations abandoned after exhausting retries
	// Tunnel sub-flow hot-path counters.
	tunnelAllocs       *obs.Counter // sub-flow allocations admitted
	tunnelReleases     *obs.Counter // sub-flow releases applied
	tunnelBatches      *obs.Counter // tunnel batches applied
	tunnelBatchReplays *obs.Counter // batch retransmissions answered from the replay cache
	tunnelBatchesStale *obs.Counter // batches refused at or below their sender's low-water or reusing a held seq
	tunnelDenied       *obs.Counter // sub-flow ops denied (capacity, duplicates, rollbacks)
	// Durability-layer counters.
	journalAppends      *obs.Counter // records appended to the journal
	journalFsyncBatches *obs.Counter // fsyncs (one per batch under FsyncBatch)
	journalErrors       *obs.Counter // journal write-path failures
	checkpoints         *obs.Counter // snapshot+truncate rotations
	recoveredRecords    *obs.Counter // records replayed at boot
	// Flight-recorder counters.
	eventsRecorded *obs.Counter // wide events appended to the event log
	eventsForced   *obs.Counter // events recorded because of a denial/error, not the sampler
	eventDrops     *obs.Counter // events lost to event-log write failures
	// Replication counters (zero on an unreplicated broker).
	replRecordsStreamed    *obs.Counter // journal frames shipped to followers
	replRecordsApplied     *obs.Counter // streamed frames applied and re-journaled (follower side)
	replSnapshotsSent      *obs.Counter // catch-up snapshots shipped to followers
	replSnapshotsInstalled *obs.Counter // catch-up snapshots installed (follower side)
	replAcks               *obs.Counter // follower acknowledgements processed
	replStreamErrors       *obs.Counter // stream transport/apply failures (either side)
	replStreamResyncs      *obs.Counter // established streams restarted from a snapshot (leader side)
	replElections          *obs.Counter // elections won by this replica
	replRedirects          *obs.Counter // mutating requests redirected to the leader
	replCommitTimeouts     *obs.Counter // settles that proceeded without majority ack
	// Latency quantile histograms (seconds). Striped lock-free
	// histograms: Observe is safe on the sub-flow hot path, and the
	// admin endpoint and experiment reports read p50/p99/p999 off them.
	handleSeconds        *obs.QHist // per-hop reserve handling time
	downstreamSeconds    *obs.QHist // downstream round trip incl. retries
	grantSeconds         *obs.QHist // end-to-end grant time at the source hop
	journalAppendSeconds *obs.QHist // journal append latency (buffer or disk)
	tunnelBatchSeconds   *obs.QHist // destination-side batch application time
	// replCommitWaitSeconds is how long a leader's settle waited for its
	// majority commit: observed only by a settle that waits.
	replCommitWaitSeconds *obs.QHist
	// recoverySeconds is how long the boot-time journal recovery took
	// (0 on a memory-only broker).
	recoverySeconds *obs.Gauge
}

// newBBMetrics registers the broker's counters and histograms on r.
// The registry must be per-broker: names are registered exactly once.
func newBBMetrics(r *obs.Registry) bbMetrics {
	if r == nil {
		return bbMetrics{}
	}
	return bbMetrics{
		received:     r.Counter("bb_rars_received_total", "reserve requests received"),
		forwarded:    r.Counter("bb_rars_forwarded_total", "reserve requests forwarded downstream"),
		granted:      r.Counter("bb_rars_granted_total", "reserve requests granted at this hop"),
		denied:       r.Counter("bb_rars_denied_total", "reserve requests denied or failed at this hop"),
		cancels:      r.Counter("bb_cancels_total", "cancel requests received"),
		layerChecks:  r.Counter("bb_layer_signatures_verified_total", "envelope layer signatures verified in accepted reserve chains"),
		vouched:      r.Counter("bb_layers_vouched_total", "inner envelope layers of accepted reserve chains taken on the channel peer's signature, unchecked"),
		signatures:   r.Counter("bb_signatures_made_total", "signatures this broker made: envelope layers sealed onward, grant statements and refusals"),
		rollbacks:    r.Counter("bb_rollbacks_total", "optimistic admissions rolled back after downstream denial or failure"),
		retries:      r.Counter("bb_retries_total", "downstream call retries after transport failures"),
		breakerOpens: r.Counter("bb_breaker_opens_total", "per-peer circuit breaker open transitions"),
		replays:      r.Counter("bb_replays_total", "idempotent replays of recorded RAR outcomes"),
		clientEvictions: r.Counter("bb_client_evictions_total",
			"pooled peer clients retired after transport faults or dead demux loops"),

		reroutes:     r.Counter("bb_reroutes_total", "reserve requests re-forwarded onto an alternate disjoint path"),
		rerouteSkips: r.Counter("bb_reroute_path_skips_total", "candidate paths skipped because the first hop's circuit breaker was open"),
		splits:       r.Counter("bb_splits_total", "reservations split across multiple disjoint paths"),
		splitFails:   r.Counter("bb_split_failures_total", "split reservations rolled back after a partial denial or failure"),

		sagasStarted:       r.Counter("bb_sagas_started_total", "multi-step compensation sagas begun"),
		sagasCommitted:     r.Counter("bb_sagas_committed_total", "sagas committed after their forward path fully succeeded"),
		sagasAborted:       r.Counter("bb_sagas_aborted_total", "sagas aborted into compensation"),
		sagaCompensations:  r.Counter("bb_saga_compensations_total", "saga compensations executed to completion"),
		rollbacksAbandoned: r.Counter("bb_rollbacks_abandoned_total", "rollback compensations abandoned after exhausting retries, downstream state unknown"),

		tunnelAllocs:       r.Counter("bb_tunnel_allocs_total", "tunnel sub-flow allocations admitted"),
		tunnelReleases:     r.Counter("bb_tunnel_releases_total", "tunnel sub-flow releases applied"),
		tunnelBatches:      r.Counter("bb_tunnel_batches_total", "tunnel sub-flow batches applied (a single alloc or release is a batch of one)"),
		tunnelBatchReplays: r.Counter("bb_tunnel_batch_replays_total", "batch retransmissions answered from the replay cache"),
		tunnelBatchesStale: r.Counter("bb_tunnel_batches_stale_total", "tunnel batches refused unapplied: at or below their sender's acknowledged low-water, or reusing a held seq for other ops"),
		tunnelDenied:       r.Counter("bb_tunnel_ops_denied_total", "tunnel sub-flow operations denied or rolled back"),

		journalAppends:      r.Counter("bb_journal_appends_total", "records appended to the write-ahead journal"),
		journalFsyncBatches: r.Counter("bb_journal_fsync_batches_total", "journal fsyncs (one per group-commit batch under the batch policy)"),
		journalErrors:       r.Counter("bb_journal_errors_total", "journal write-path failures (durability degraded until restart)"),
		checkpoints:         r.Counter("bb_checkpoints_total", "journal snapshot+truncate rotations"),
		recoveredRecords:    r.Counter("bb_recovered_records_total", "journal records replayed during boot-time recovery"),

		eventsRecorded: r.Counter("bb_events_recorded_total", "wide flight-recorder events appended to the event log"),
		eventsForced:   r.Counter("bb_events_forced_total", "flight-recorder events forced by a denial, rollback or downstream error"),
		eventDrops:     r.Counter("bb_event_drops_total", "flight-recorder events lost to event-log write failures"),

		replRecordsStreamed:    r.Counter("bb_repl_records_streamed_total", "journal frames shipped to followers"),
		replRecordsApplied:     r.Counter("bb_repl_records_applied_total", "streamed journal frames applied and re-journaled by this follower"),
		replSnapshotsSent:      r.Counter("bb_repl_snapshots_sent_total", "replication catch-up snapshots shipped to followers"),
		replSnapshotsInstalled: r.Counter("bb_repl_snapshots_installed_total", "replication catch-up snapshots installed by this follower"),
		replAcks:               r.Counter("bb_repl_acks_total", "follower stream acknowledgements processed by the leader"),
		replStreamErrors:       r.Counter("bb_repl_stream_errors_total", "replication stream transport or apply failures"),
		replStreamResyncs:      r.Counter("bb_repl_stream_resyncs_total", "pipelined follower streams torn down and restarted from a snapshot (the cause is in the log)"),
		replElections:          r.Counter("bb_repl_elections_total", "replica-group elections won by this broker"),
		replRedirects:          r.Counter("bb_repl_redirects_total", "mutating requests redirected from this follower to the leader"),
		replCommitTimeouts:     r.Counter("bb_repl_commit_timeouts_total", "settlements that proceeded after the majority-ack wait timed out"),

		handleSeconds:        r.Quantile("bb_handle_seconds", "per-hop reserve handling time"),
		downstreamSeconds:    r.Quantile("bb_downstream_seconds", "downstream call round trip including retries and backoff"),
		grantSeconds:         r.Quantile("bb_grant_seconds", "end-to-end grant time observed at the source hop"),
		journalAppendSeconds: r.Quantile("bb_journal_append_seconds", "journal append latency as seen by the mutating call"),
		tunnelBatchSeconds:   r.Quantile("bb_tunnel_batch_seconds", "destination-side tunnel batch application time"),
		replCommitWaitSeconds: r.Quantile("bb_repl_commit_wait_seconds",
			"time a leader's settle waited for majority acknowledgement (a settle whose records were committed already is not observed)"),

		recoverySeconds: r.Gauge("bb_recovery_seconds", "boot-time journal recovery duration (0 when memory-only)"),
	}
}

// registerGauges exposes the broker's live state as sampled-on-scrape
// gauges: double bookkeeping would drift, the table and tunnel
// registry already know the truth.
func (b *BB) registerGauges(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("bb_capacity_bps", "premium aggregate capacity (bits per second)",
		func() float64 { return float64(b.cfg.Capacity) })
	r.GaugeFunc("bb_reserved_bps", "premium bandwidth committed right now (bits per second)",
		func() float64 { return float64(b.table.CommittedAt(b.cfg.Clock())) })
	// sumTunnels adds up f over the tunnel registrations.
	sumTunnels := func(f func(tunnelReg) int) float64 {
		n := 0
		for _, t := range b.tunnels.list() {
			n += f(t.val)
		}
		return float64(n)
	}
	r.GaugeFunc("bb_open_tunnels", "tunnel endpoints registered at this broker",
		func() float64 { return float64(b.tunnels.size()) })
	r.GaugeFunc("bb_tunnel_subflows", "live sub-flow allocations across all tunnels",
		func() float64 { return sumTunnels(func(t tunnelReg) int { return t.ep.Len() }) })
	r.GaugeFunc("bb_open_rars", "RAR route entries held, settled denials and expired grants included",
		func() float64 { return float64(b.routes.size()) })
	r.GaugeFunc("bb_tunnel_batch_entries", fmt.Sprintf("batch replay entries held across all tunnels, each until its sender acknowledges it (at most %d per tunnel for a sender that never does)", maxHeldBatches),
		func() float64 { return sumTunnels(func(t tunnelReg) int { return t.batches.size() }) })
	r.GaugeFunc("bb_late_responses_dropped", "downstream responses that arrived after their call gave up",
		func() float64 { return float64(b.pool.lateDropped()) })
	r.GaugeFunc("bb_sagas_live", "compensation sagas currently open (active or compensating)",
		func() float64 { return float64(b.sagas.Live()) })
	if b.repl != nil {
		r.GaugeFunc("bb_repl_is_leader", "1 while this replica leads its group",
			func() float64 {
				if b.ReplicationStatus().Leader {
					return 1
				}
				return 0
			})
		r.GaugeFunc("bb_repl_term", "current replica-group election term",
			func() float64 { return float64(b.ReplicationStatus().Term) })
		r.GaugeFunc("bb_repl_commit_seq", "highest majority-acknowledged journal sequence",
			func() float64 { return float64(b.ReplicationStatus().CommitSeq) })
		r.GaugeFunc("bb_repl_applied_seq", "highest streamed journal sequence applied by this follower",
			func() float64 { return float64(b.ReplicationStatus().AppliedSeq) })
		r.GaugeFunc("bb_repl_inflight_frames", "stream messages written to followers and not yet acknowledged",
			func() float64 { return float64(b.repl.inflight.Load()) })
		r.GaugeFunc("bb_repl_tail_bytes", fmt.Sprintf("journal frame bytes this replica keeps for followers that have not acknowledged them (0 on a follower; a follower that stops acknowledging grows it up to the %d-byte cap)", replTailBytes),
			func() float64 { return float64(b.journal.Stats().TailBytes) })
		r.GaugeFunc("bb_repl_lag_records", "journal records not yet majority-acknowledged (leader) or not yet applied (follower)",
			func() float64 {
				s := b.ReplicationStatus()
				var lag int64
				if s.Leader {
					lag = s.JournalSeq - s.CommitSeq
				} else {
					lag = s.CommitSeq - s.AppliedSeq
				}
				if lag < 0 {
					lag = 0
				}
				return float64(lag)
			})
	}
}
