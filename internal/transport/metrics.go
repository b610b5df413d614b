package transport

import "e2eqos/internal/obs"

// Metrics counts transport-level events: connection attempts, accepted
// connections, and deadline expiries. A nil *Metrics (the default on
// every dialer, listener and network) disables the accounting with no
// other behaviour change, so the obs layer costs nothing when off.
type Metrics struct {
	// Dials counts successful outbound connection establishments.
	Dials *obs.Counter
	// DialFailures counts failed dial attempts (refused, unreachable,
	// handshake failure or handshake timeout).
	DialFailures *obs.Counter
	// Accepts counts authenticated inbound connections.
	Accepts *obs.Counter
	// Timeouts counts send deadline expiries on established
	// connections.
	Timeouts *obs.Counter
}

// NewMetrics registers the transport counters on r (nil registry →
// nil metrics, everything disabled).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Dials:        r.Counter("transport_dials_total", "successful outbound connection establishments"),
		DialFailures: r.Counter("transport_dial_failures_total", "failed outbound dial attempts"),
		Accepts:      r.Counter("transport_accepts_total", "authenticated inbound connections accepted"),
		Timeouts:     r.Counter("transport_timeouts_total", "send deadline expiries on established connections"),
	}
}

func (m *Metrics) dial() {
	if m != nil {
		m.Dials.Inc()
	}
}

func (m *Metrics) dialFailure() {
	if m != nil {
		m.DialFailures.Inc()
	}
}

func (m *Metrics) accept() {
	if m != nil {
		m.Accepts.Inc()
	}
}

func (m *Metrics) timeout() {
	if m != nil {
		m.Timeouts.Inc()
	}
}
