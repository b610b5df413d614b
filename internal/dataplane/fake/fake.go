// Package fake provides the closed-form data plane of the large-scale
// scenario fleet. It enforces the same (r, b) token-bucket semantics as
// the packet simulator, but at byte granularity: marking or policing N
// bytes is O(1), independent of packet count, which is what makes
// 10^5–10^6 simulated users affordable. The fleet holds its planes
// directly: Mark, Police and ClassStats are its metering, not part of
// the broker's contract.
package fake

import (
	"sync"
	"time"

	"e2eqos/internal/dataplane"
	"e2eqos/internal/sla"
)

// bucket is a closed-form (r, b) token bucket at byte granularity.
type bucket struct {
	rate   float64 // bytes per second
	burst  float64 // bucket depth, bytes
	tokens float64
	last   time.Duration
	primed bool
}

func newBucket(p sla.TrafficProfile) *bucket {
	return &bucket{
		rate:   float64(p.Rate) / 8,
		burst:  float64(p.BucketBytes),
		tokens: float64(p.BucketBytes),
	}
}

// touch advances the bucket to virtual time now. Refill earned since
// the last call is credited in full: a take models traffic offered
// over the whole elapsed window, not at an instant, so conformance
// over the window is (residual tokens + rate·dt). The bucket-depth cap
// is applied to the residual carried forward, not to the in-window
// refill.
func (b *bucket) touch(now time.Duration) {
	if !b.primed {
		b.last = now
		b.primed = true
		return
	}
	if now <= b.last {
		return
	}
	b.tokens += (now - b.last).Seconds() * b.rate
	b.last = now
}

// take consumes up to bytes tokens for traffic offered over the window
// since the previous call, and returns how many it got.
func (b *bucket) take(bytes int64, now time.Duration) int64 {
	b.touch(now)
	got := float64(bytes)
	if got > b.tokens {
		got = b.tokens
	}
	if got < 0 {
		got = 0
	}
	b.tokens -= got
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	return int64(got)
}

// ClassStats is the byte accounting at the aggregate policer.
type ClassStats struct {
	// PremiumBytes counts premium bytes that conformed to the
	// aggregate profile and passed the policer.
	PremiumBytes int64
	// BestEffortBytes counts best-effort bytes forwarded. The fake
	// meters premium traffic only, so it stays zero; the fleet's digest
	// line prints it all the same.
	BestEffortBytes int64
	// ExcessPremiumBytes counts premium bytes offered beyond the
	// aggregate profile.
	ExcessPremiumBytes int64
}

// Plane is the closed-form fake backend. It is safe for concurrent use.
type Plane struct {
	mu    sync.Mutex
	flows map[string]*bucket
	agg   *bucket
	stats ClassStats
}

var _ dataplane.DataPlane = (*Plane)(nil)

// New returns an empty fake plane with a zero aggregate (all premium
// traffic is excess until SetAggregate is called).
func New() *Plane {
	return &Plane{
		flows: make(map[string]*bucket),
		agg:   newBucket(sla.TrafficProfile{}),
	}
}

// InstallProfile gives flow a premium profile, replacing (and
// resetting the meter of) any existing one.
func (p *Plane) InstallProfile(flow string, prof sla.TrafficProfile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.flows[flow] = newBucket(prof)
}

// RemoveProfile tears the flow's profile down.
func (p *Plane) RemoveProfile(flow string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.flows, flow)
}

// SetAggregate reconfigures the admitted aggregate.
func (p *Plane) SetAggregate(prof sla.TrafficProfile) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.agg = newBucket(prof)
}

// Mark meters bytes of flow traffic in closed form against the flow's
// profile and returns how many bytes leave the edge marked premium;
// unreserved flows mark nothing premium. The bytes are treated as
// offered over the window since the flow's previous Mark — call Mark
// with zero bytes at a window's start to open it (priming the meter)
// and with the accumulated bytes at its end. Virtual time must be
// monotone per plane.
func (p *Plane) Mark(flow string, bytes int64, now time.Duration) int64 {
	if bytes < 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	meter, ok := p.flows[flow]
	if !ok {
		return 0
	}
	if bytes == 0 {
		meter.touch(now)
		return 0
	}
	return meter.take(bytes, now)
}

// Police meters premium bytes against the aggregate in closed form,
// with the same window semantics as Mark, and returns how many pass.
func (p *Plane) Police(premium int64, now time.Duration) int64 {
	if premium < 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if premium == 0 {
		p.agg.touch(now)
		return 0
	}
	passed := p.agg.take(premium, now)
	p.stats.PremiumBytes += passed
	p.stats.ExcessPremiumBytes += premium - passed
	return passed
}

// ClassStats returns the aggregate byte accounting.
func (p *Plane) ClassStats() ClassStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
