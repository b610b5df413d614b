package netsim

import (
	"container/list"
	"sync"
	"time"

	"e2eqos/internal/dsim"
	"e2eqos/internal/sla"
	"e2eqos/internal/units"
)

// Source is a constant-bit-rate traffic generator for one flow. It
// emits fixed-size best-effort packets; the first edge device
// downstream decides their fate.
type Source struct {
	sim  *dsim.Sim
	Flow FlowID
	Rate units.Bandwidth
	Size int // packet size, bytes
	Next Receiver
	Stop time.Duration
	// Jitter randomises each inter-packet gap by up to ±Jitter
	// (fraction of the nominal interval), using a deterministic
	// per-flow PRNG. Real sources are never perfectly periodic; without
	// jitter, same-rate CBR flows phase-lock against token-bucket
	// policers and produce pathological win/lose patterns.
	Jitter float64

	rng uint64
}

// NewSource creates a CBR source; call Install to begin emitting.
func NewSource(sim *dsim.Sim, flow FlowID, rate units.Bandwidth, pktSize int, next Receiver) *Source {
	return &Source{sim: sim, Flow: flow, Rate: rate, Size: pktSize, Next: next}
}

// Install schedules the first emission, at time zero. Stop of zero
// means "run until the simulation horizon".
func (s *Source) Install(stop time.Duration) error {
	s.Stop = stop
	return s.sim.Schedule(0, s.emit)
}

// interval is the inter-packet gap for the CBR schedule, with
// deterministic jitter applied when configured.
func (s *Source) interval() time.Duration {
	if s.Rate <= 0 {
		return time.Hour
	}
	secs := float64(s.Size*8) / float64(s.Rate)
	iv := time.Duration(secs * float64(time.Second))
	if s.Jitter > 0 {
		u := s.nextRand() // in [0, 1)
		factor := 1 + s.Jitter*(2*u-1)
		iv = time.Duration(float64(iv) * factor)
		if iv <= 0 {
			iv = time.Nanosecond
		}
	}
	return iv
}

// nextRand is a per-source xorshift64* generator seeded from the flow
// id, keeping runs reproducible.
func (s *Source) nextRand() float64 {
	if s.rng == 0 {
		s.rng = 0x9E3779B97F4A7C15
		for _, b := range []byte(s.Flow) {
			s.rng = (s.rng ^ uint64(b)) * 0x100000001B3
		}
		if s.rng == 0 {
			s.rng = 1
		}
	}
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return float64(s.rng>>11) / float64(1<<53)
}

func (s *Source) emit() {
	now := s.sim.Now()
	if s.Stop > 0 && now >= s.Stop {
		return
	}
	s.Next.Receive(newPacket(s.Flow, s.Size, BestEffort, now))
	_ = s.sim.After(s.interval(), s.emit)
}

// EdgeMarker is the first-hop device of a DiffServ domain: it
// recognises packets "on a per flow base" and marks conforming packets
// of flows with an installed reservation as Premium; everything else
// is (re)marked best effort. This is the only per-flow element in the
// network, exactly as the DiffServ architecture prescribes.
//
// The marker is safe for concurrent use: the control plane installs
// and removes reservations from broker goroutines while the data path
// classifies packets.
type EdgeMarker struct {
	Next Receiver

	mu     sync.Mutex
	meters map[FlowID]*TokenBucket
	nowFn  func() time.Duration
}

// NewEdgeMarker creates an edge marker feeding next.
func NewEdgeMarker(sim *dsim.Sim, next Receiver) *EdgeMarker {
	return &EdgeMarker{Next: next, meters: make(map[FlowID]*TokenBucket), nowFn: sim.Now}
}

// InstallReservation gives flow a premium profile (what the BB does to
// the edge router when a reservation is granted).
func (m *EdgeMarker) InstallReservation(flow FlowID, profile sla.TrafficProfile) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.meters[flow] = NewTokenBucket(profile.Rate, profile.BucketBytes)
}

// RemoveReservation tears the profile down.
func (m *EdgeMarker) RemoveReservation(flow FlowID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.meters, flow)
}

// Receive classifies and marks the packet: premium while the flow's
// reservation profile holds, best effort otherwise.
func (m *EdgeMarker) Receive(p *Packet) {
	m.mu.Lock()
	p.Class = BestEffort
	if tb, reserved := m.meters[p.Flow]; reserved && tb.Conform(p.Size, m.nowFn()) {
		p.Class = Premium
	}
	m.mu.Unlock()
	m.Next.Receive(p)
}

// Policer is a per-aggregate ingress policer: it meters the *sum* of
// premium traffic entering a domain against the admitted aggregate
// profile, without distinguishing flows. Non-conforming premium
// packets are dropped. Best-effort packets pass untouched.
//
// The policer is safe for concurrent use: the control plane
// reconfigures the aggregate from broker goroutines while the data
// path meters packets.
type Policer struct {
	sim  *dsim.Sim
	Next Receiver
	// Dropped counts the premium packets the aggregate did not admit.
	Dropped int64

	mu    sync.Mutex
	meter *TokenBucket
}

// NewPolicer creates an ingress policer with the given aggregate
// profile.
func NewPolicer(sim *dsim.Sim, profile sla.TrafficProfile, next Receiver) *Policer {
	return &Policer{
		sim:   sim,
		Next:  next,
		meter: NewTokenBucket(profile.Rate, profile.BucketBytes),
	}
}

// SetAggregateRate reconfigures the admitted aggregate (what the BB
// does as reservations come and go).
func (po *Policer) SetAggregateRate(rate units.Bandwidth, bucketBytes int64) {
	po.mu.Lock()
	defer po.mu.Unlock()
	po.meter = NewTokenBucket(rate, bucketBytes)
}

// Receive polices premium packets against the aggregate profile.
func (po *Policer) Receive(p *Packet) {
	if p.Class != Premium {
		po.Next.Receive(p)
		return
	}
	po.mu.Lock()
	ok := po.meter.Conform(p.Size, po.sim.Now())
	if !ok {
		po.Dropped++
	}
	po.mu.Unlock()
	if ok {
		po.Next.Receive(p)
	}
}

// Link models an output port plus wire: strict-priority service
// (premium before best effort), finite per-class buffers, a
// transmission rate and a propagation delay.
type Link struct {
	sim                *dsim.Sim
	Capacity           units.Bandwidth
	Next               Receiver
	premQ, beQ         *list.List
	premBytes, beBytes int
	busy               bool
}

// Every link's propagation delay, and the bound on each of its class
// queues.
const (
	linkProp        = time.Millisecond
	linkBufferBytes = 256 * 1024
)

// NewLink creates a link feeding next.
func NewLink(sim *dsim.Sim, capacity units.Bandwidth, next Receiver) *Link {
	return &Link{
		sim:      sim,
		Capacity: capacity,
		Next:     next,
		premQ:    list.New(),
		beQ:      list.New(),
	}
}

// Receive enqueues the packet, dropping on buffer overflow.
func (l *Link) Receive(p *Packet) {
	if p.Class == Premium {
		if l.premBytes+p.Size > linkBufferBytes {
			return
		}
		l.premQ.PushBack(p)
		l.premBytes += p.Size
	} else {
		if l.beBytes+p.Size > linkBufferBytes {
			return
		}
		l.beQ.PushBack(p)
		l.beBytes += p.Size
	}
	if !l.busy {
		l.transmitNext()
	}
}

func (l *Link) pop() *Packet {
	if e := l.premQ.Front(); e != nil {
		l.premQ.Remove(e)
		p := e.Value.(*Packet)
		l.premBytes -= p.Size
		return p
	}
	if e := l.beQ.Front(); e != nil {
		l.beQ.Remove(e)
		p := e.Value.(*Packet)
		l.beBytes -= p.Size
		return p
	}
	return nil
}

func (l *Link) transmitNext() {
	p := l.pop()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	tx := time.Duration(float64(p.Size*8) / float64(l.Capacity) * float64(time.Second))
	pkt := p
	if err := l.sim.After(tx, func() {
		// Delivery after propagation happens in parallel with the next
		// transmission; a delivery past the horizon is lost.
		_ = l.sim.After(linkProp, func() { l.Next.Receive(pkt) })
		l.transmitNext()
	}); err != nil {
		l.busy = false
	}
}

// Sink terminates flows and accumulates statistics. It is safe for
// concurrent use; Stats returns a snapshot copy.
type Sink struct {
	sim   *dsim.Sim
	mu    sync.Mutex
	flows map[FlowID]*FlowStats
}

// NewSink creates an empty sink.
func NewSink(sim *dsim.Sim) *Sink {
	return &Sink{sim: sim, flows: make(map[FlowID]*FlowStats)}
}

// Receive records the packet.
func (s *Sink) Receive(p *Packet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.flows[p.Flow]
	if st == nil {
		st = &FlowStats{RxBytesByCls: make(map[Class]int64)}
		s.flows[p.Flow] = st
	}
	now := s.sim.Now()
	st.RxPackets++
	st.RxBytes += int64(p.Size)
	st.RxBytesByCls[p.Class] += int64(p.Size)
	st.LatencySum += now - p.Sent
}

// Stats returns a snapshot of the accumulated statistics for flow
// (nil if none).
func (s *Sink) Stats(flow FlowID) *FlowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.flows[flow]
	if st == nil {
		return nil
	}
	cp := *st
	cp.RxBytesByCls = make(map[Class]int64, len(st.RxBytesByCls))
	for c, b := range st.RxBytesByCls {
		cp.RxBytesByCls[c] = b
	}
	return &cp
}
