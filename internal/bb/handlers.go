package bb

import (
	"fmt"
	"time"

	"e2eqos/internal/obs"
	"e2eqos/internal/signalling"
)

// Handle implements signalling.Handler: the broker's message dispatch.
// On a replica-group follower every mutating message redirects to the
// leader; status reads and replication traffic are served locally.
func (b *BB) Handle(peer signalling.Peer, msg *signalling.Message) *signalling.Message {
	if b.repl.isFollower() {
		switch msg.Type {
		case signalling.MsgReserve, signalling.MsgCancel, signalling.MsgTunnelBatch:
			return b.redirect()
		}
	}
	switch msg.Type {
	case signalling.MsgReserve:
		if msg.Reserve == nil {
			return signalling.ErrorResult("reserve message without payload")
		}
		return b.handleReserve(peer, msg.Reserve)
	case signalling.MsgCancel:
		if msg.Cancel == nil {
			return signalling.ErrorResult("cancel message without payload")
		}
		return b.handleCancel(peer, msg.Cancel)
	case signalling.MsgTunnelBatch:
		if msg.TunnelBatch == nil {
			return signalling.ErrorResult("tunnel-batch message without payload")
		}
		return b.handleTunnelBatch(peer, msg.TunnelBatch)
	case signalling.MsgStatus:
		if msg.Status == nil {
			return signalling.ErrorResult("status message without payload")
		}
		return b.handleStatus(peer, msg.Status)
	case signalling.MsgJournalStream:
		if msg.JournalStream == nil {
			return signalling.ErrorResult("journal-stream message without payload")
		}
		return b.handleJournalStream(peer, msg.JournalStream)
	default:
		return signalling.ErrorResult(fmt.Sprintf("unsupported message type %q", msg.Type))
	}
}

// deny builds a denied result carrying this domain's signed refusal,
// implementing "Whenever a request is denied by one domain, the event
// is propagated upstream to inform the user of the reason for the
// denial."
func (b *BB) deny(rarID, reason string) *signalling.Message {
	resp := signalling.ErrorResult(reason)
	if a, err := b.signRefusal(rarID, reason); err == nil {
		resp.Result.Approvals = []signalling.DomainApproval{a}
	}
	return resp
}

// finishTrace stamps this hop's span onto the response of a traced
// reserve: total time, verdict (derived from the result unless the
// processing already pinned one), and the trace id echo. Spans from
// hops below are already in the result; this hop's span goes on top,
// mirroring how approvals stack on the return path.
func finishTrace(resp *signalling.Message, span *obs.Span, traceID string, t0 time.Time) {
	if span == nil || resp == nil || resp.Result == nil {
		return
	}
	span.TotalNS = time.Since(t0).Nanoseconds()
	if span.Verdict == "" {
		if resp.Result.Granted {
			span.Verdict = obs.VerdictGranted
		} else {
			span.Verdict = obs.VerdictDenied
			span.Reason = resp.Result.Reason
		}
	}
	resp.Result.TraceID = traceID
	resp.Result.Trace = append(resp.Result.Trace, *span)
}
