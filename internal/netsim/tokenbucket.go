package netsim

import (
	"sync"
	"time"

	"e2eqos/internal/units"
)

// TokenBucket is the classic (r, b) traffic meter used by edge markers
// and ingress policers. Tokens are measured in bytes and refill
// continuously at Rate. It is safe for concurrent use; Rate and
// BucketBytes must not be mutated after construction.
type TokenBucket struct {
	Rate        units.Bandwidth
	BucketBytes float64

	mu     sync.Mutex
	tokens float64
	last   time.Duration
	primed bool
}

// NewTokenBucket creates a full bucket.
func NewTokenBucket(rate units.Bandwidth, bucketBytes int64) *TokenBucket {
	return &TokenBucket{Rate: rate, BucketBytes: float64(bucketBytes), tokens: float64(bucketBytes)}
}

// refill advances the bucket to virtual time now.
func (tb *TokenBucket) refill(now time.Duration) {
	if !tb.primed {
		tb.last = now
		tb.primed = true
		return
	}
	if now <= tb.last {
		return
	}
	dt := (now - tb.last).Seconds()
	tb.tokens += dt * float64(tb.Rate) / 8
	if tb.tokens > tb.BucketBytes {
		tb.tokens = tb.BucketBytes
	}
	tb.last = now
}

// Conform consumes size bytes of tokens if available at virtual time
// now and reports whether the packet conformed.
func (tb *TokenBucket) Conform(size int, now time.Duration) bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refill(now)
	if float64(size) <= tb.tokens {
		tb.tokens -= float64(size)
		return true
	}
	return false
}
