package bb

import (
	"fmt"
	"sync"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/signalling"
)

// defaultRetryBackoff is the initial retry delay when retries are
// enabled but no backoff is configured; it doubles per attempt.
const defaultRetryBackoff = 10 * time.Millisecond

// breaker is a per-peer circuit breaker: after BreakerThreshold
// consecutive transport failures the circuit opens for BreakerCooldown
// and downstream calls fail fast instead of each waiting out a full
// deadline against a dead neighbour. After the cooldown one probe call
// is let through (half-open); its outcome re-trips or closes the
// circuit.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	failures  int
	openUntil time.Time
}

// open reports how much longer the circuit stays open, whatever the
// threshold: a trip opens one that failures never do.
func (br *breaker) open(now time.Time) (time.Duration, bool) {
	br.mu.Lock()
	defer br.mu.Unlock()
	if now.Before(br.openUntil) {
		return br.openUntil.Sub(now), true
	}
	return 0, false
}

// fail records a transport failure and reports whether this failure
// transitioned the circuit from closed to open (so the caller can
// count and log the event exactly once per opening).
func (br *breaker) fail(now time.Time) bool {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.failures++
	if br.threshold > 0 && br.failures >= br.threshold {
		wasClosed := !now.Before(br.openUntil)
		br.openUntil = now.Add(br.cooldown)
		return wasClosed
	}
	return false
}

func (br *breaker) ok() {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.failures = 0
	br.openUntil = time.Time{}
}

// trip forces the circuit open for one cooldown, as if the threshold
// had just been crossed. Fault-injection hook: a breaker configured off
// (threshold 0) stays off once the cooldown ends.
func (br *breaker) trip(now time.Time) {
	br.mu.Lock()
	defer br.mu.Unlock()
	br.failures = br.threshold
	br.openUntil = now.Add(br.cooldown)
}

// TripBreaker forces this broker's circuit to the named neighbour
// domain open for one cooldown period — the fault-injection hook the
// multipath re-route tests drive mid-signalling.
func (b *BB) TripBreaker(domain string) error {
	nd, ok := b.cfg.Topo.Domain(domain)
	if !ok {
		return fmt.Errorf("bb %s: unknown domain %s", b.cfg.Domain, domain)
	}
	b.breakerFor(nd.BBDN).trip(b.cfg.Clock())
	b.m.breakerOpens.Inc()
	b.log.Warn("circuit breaker tripped by operator", obs.AttrPeer, string(nd.BBDN))
	return nil
}

// breakerFor returns (creating if needed) the peer's circuit breaker.
func (b *BB) breakerFor(dn identity.DN) *breaker {
	b.mu.Lock()
	defer b.mu.Unlock()
	br, ok := b.breakers[dn]
	if !ok {
		cooldown := b.cfg.BreakerCooldown
		if cooldown <= 0 {
			cooldown = 5 * time.Second
		}
		br = &breaker{threshold: b.cfg.BreakerThreshold, cooldown: cooldown}
		b.breakers[dn] = br
	}
	return br
}

// dropClient retires the pooled client to dn if it is still the given
// instance, so the next clientFor redials instead of reusing a
// connection whose state is unknown after a transport failure. The
// retirement is a drain-close: calls other goroutines still have in
// flight on the connection settle on their own deadlines first.
func (b *BB) dropClient(dn identity.DN, c *signalling.Client) {
	b.pool.evict(dn, c)
}

// callPeer performs one downstream signalling call under the broker's
// robustness policy: per-call deadline (Config.CallTimeout), retry
// with exponential backoff on transport failures (never on
// protocol-level denials, which arrive as granted=false results), and
// the per-peer circuit breaker. On any transport failure the cached
// connection is dropped, so retries and later calls redial. The
// retries return reports how many extra attempts beyond the first
// were made (for span accounting); it is meaningful on error too.
func (b *BB) callPeer(dn identity.DN, msg *signalling.Message) (*signalling.Message, int, error) {
	br := b.breakerFor(dn)
	if wait, isOpen := br.open(b.cfg.Clock()); isOpen {
		return nil, 0, fmt.Errorf("bb %s: circuit to %s open for another %v", b.cfg.Domain, dn, wait.Round(time.Millisecond))
	}
	backoff := b.cfg.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	var lastErr error
	retries := 0
	for attempt := 0; attempt <= b.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			retries++
			b.m.retries.Inc()
			b.log.Debug("retrying downstream call",
				obs.AttrPeer, string(dn), "type", string(msg.Type),
				"attempt", attempt+1, "backoff", backoff)
			time.Sleep(backoff)
			backoff *= 2
		}
		client, err := b.clientFor(dn)
		if err != nil {
			lastErr = err
			b.noteFailure(br, dn)
			continue
		}
		resp, err := client.CallTimeout(msg, b.cfg.CallTimeout)
		if err != nil {
			lastErr = fmt.Errorf("bb %s: call to %s (attempt %d): %w", b.cfg.Domain, dn, attempt+1, err)
			b.dropClient(dn, client)
			b.noteFailure(br, dn)
			continue
		}
		br.ok()
		return resp, retries, nil
	}
	return nil, retries, lastErr
}

// noteFailure feeds a transport failure into the peer's breaker and
// accounts for the open transition, if this failure caused one.
func (b *BB) noteFailure(br *breaker, dn identity.DN) {
	if br.fail(b.cfg.Clock()) {
		b.m.breakerOpens.Inc()
		b.log.Warn("circuit breaker opened",
			obs.AttrPeer, string(dn), "cooldown", br.cooldown)
	}
}
