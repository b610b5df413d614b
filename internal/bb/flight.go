package bb

import (
	"time"

	"e2eqos/internal/obs"
	"e2eqos/internal/signalling"
)

// Flight-recorder integration: each settled request that was either
// sampled at its ingress hop or ended badly (denial, rollback,
// downstream error — the requests someone will ask about) becomes one
// wide binary event in the broker's bounded on-disk event log. With
// no EventsDir configured every helper is a nil check.

// appendEvent stamps the broker's identity and clock onto ev and
// writes it. Event-log failures are counted and logged, never
// propagated: telemetry must not fail the request it observes.
func (b *BB) appendEvent(ev *obs.Event) {
	ev.Domain = b.cfg.Domain
	ev.TimeNS = b.cfg.Clock().UnixNano()
	if err := b.recorder.Append(ev); err != nil {
		b.m.eventDrops.Inc()
		b.log.Warn("flight recorder: append failed", "err", err)
		return
	}
	b.m.eventsRecorded.Inc()
}

// recordReserveEvent records this hop's settlement of a reserve RAR.
// rarID and user may be empty when the request failed before
// verification produced a spec.
func (b *BB) recordReserveEvent(rarID, user string, payload *signalling.ReservePayload, resp *signalling.Message, t0 time.Time) {
	if b.recorder == nil || resp == nil || resp.Result == nil {
		return
	}
	forced := !resp.Result.Granted
	if !payload.Sampled && !forced {
		return
	}
	ev := obs.Event{
		Kind:       obs.EventReserve,
		TraceID:    payload.TraceID,
		RARID:      rarID,
		User:       user,
		Reason:     resp.Result.Reason,
		Bytes:      len(payload.EnvelopeData),
		DurationNS: time.Since(t0).Nanoseconds(),
		Sampled:    payload.Sampled,
		Spans:      resp.Result.Trace,
	}
	if resp.Result.Granted {
		ev.Verdict = obs.VerdictGranted
	} else {
		ev.Verdict = obs.VerdictDenied
	}
	// This hop's span is stacked last on the return path; its verdict
	// distinguishes an own denial from a downstream error or a
	// rolled-back admission, and carries the retry count.
	if n := len(resp.Result.Trace); n > 0 {
		top := resp.Result.Trace[n-1]
		if top.Verdict != "" {
			ev.Verdict = top.Verdict
		}
		ev.Retries = top.Retries
	}
	if forced {
		b.m.eventsForced.Inc()
	}
	b.appendEvent(&ev)
}

// recordBatchEvent records one endpoint's settlement of a tunnel
// sub-flow batch — the destination handler and the source-side
// TunnelBatch API both report through it, under the batch's trace id.
func (b *BB) recordBatchEvent(payload *signalling.TunnelBatchPayload, ops int, verdict, reason string, t0 time.Time) {
	if b.recorder == nil {
		return
	}
	forced := verdict != obs.VerdictGranted
	if !payload.Sampled && !forced {
		return
	}
	if forced {
		b.m.eventsForced.Inc()
	}
	b.appendEvent(&obs.Event{
		Kind:       obs.EventTunnelBatch,
		TraceID:    payload.TraceID,
		RARID:      payload.TunnelRARID,
		User:       string(payload.User),
		Verdict:    verdict,
		Reason:     reason,
		Ops:        ops,
		DurationNS: time.Since(t0).Nanoseconds(),
		Sampled:    payload.Sampled,
	})
}
