package netsim

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"e2eqos/internal/dsim"
	"e2eqos/internal/sla"
	"e2eqos/internal/units"
)

// Source is a constant-bit-rate traffic generator for one flow. It
// emits fixed-size packets with the configured class marking; the
// first edge device downstream decides their fate.
type Source struct {
	sim   *dsim.Sim
	Flow  FlowID
	Rate  units.Bandwidth
	Size  int // packet size, bytes
	Class Class
	Next  Receiver
	Start time.Duration
	Stop  time.Duration
	// Jitter randomises each inter-packet gap by up to ±Jitter
	// (fraction of the nominal interval), using a deterministic
	// per-flow PRNG. Real sources are never perfectly periodic; without
	// jitter, same-rate CBR flows phase-lock against token-bucket
	// policers and produce pathological win/lose patterns.
	Jitter float64

	emitted atomic.Int64
	rng     uint64
}

// NewSource creates a CBR source; call Install to begin emitting.
func NewSource(sim *dsim.Sim, flow FlowID, rate units.Bandwidth, pktSize int, class Class, next Receiver) *Source {
	return &Source{sim: sim, Flow: flow, Rate: rate, Size: pktSize, Class: class, Next: next}
}

// Install schedules the first emission. Stop of zero means "run until
// the simulation horizon".
func (s *Source) Install(start, stop time.Duration) error {
	s.Start, s.Stop = start, stop
	_, err := s.sim.Schedule(start, s.emit)
	return err
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
	s.emitted.Add(1)
	s.Next.Receive(newPacket(s.Flow, s.Size, s.Class, now))
	_, _ = s.sim.After(s.interval(), s.emit)
}

// Emitted returns the number of packets generated so far. Safe to call
// from any goroutine while the simulation runs.
func (s *Source) Emitted() int64 { return s.emitted.Load() }

// flowMeter is one installed reservation at an edge marker: the
// negotiated profile, the token bucket metering against it, and the
// per-flow marking outcome counters.
type flowMeter struct {
	profile      sla.TrafficProfile
	tb           *TokenBucket
	premiumBytes int64
	demotedBytes int64
}

// FlowMarkStats is the per-flow outcome of edge marking: how many
// bytes left the edge with the premium marking and how many were
// demoted to best effort for exceeding the installed profile.
type FlowMarkStats struct {
	Installed    bool
	Profile      sla.TrafficProfile
	PremiumBytes int64
	DemotedBytes int64
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
	Next  Receiver
	Drops DropStats

	mu     sync.Mutex
	meters map[FlowID]*flowMeter
	nowFn  func() time.Duration
}

// NewEdgeMarker creates an edge marker feeding next.
func NewEdgeMarker(sim *dsim.Sim, next Receiver) *EdgeMarker {
	return &EdgeMarker{Next: next, meters: make(map[FlowID]*flowMeter), nowFn: sim.Now}
}

// InstallReservation gives flow a premium profile (what the BB does to
// the edge router when a reservation is granted).
func (m *EdgeMarker) InstallReservation(flow FlowID, profile sla.TrafficProfile) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.meters[flow] = &flowMeter{profile: profile, tb: NewTokenBucket(profile.Rate, profile.BucketBytes)}
}

// RemoveReservation tears the profile down.
func (m *EdgeMarker) RemoveReservation(flow FlowID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.meters, flow)
}

// Installed reports whether flow currently has a reservation profile.
func (m *EdgeMarker) Installed(flow FlowID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.meters[flow]
	return ok
}

// FlowStats returns the flow's installed profile and marking counters.
// A flow whose profile was removed reports Installed=false with zeroed
// counters (the marker does not keep state for torn-down flows).
func (m *EdgeMarker) FlowStats(flow FlowID) FlowMarkStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	fm, ok := m.meters[flow]
	if !ok {
		return FlowMarkStats{}
	}
	return FlowMarkStats{
		Installed:    true,
		Profile:      fm.profile,
		PremiumBytes: fm.premiumBytes,
		DemotedBytes: fm.demotedBytes,
	}
}

// DropsSnapshot returns the marker's drop/remark counters; safe to
// call while the data path runs.
func (m *EdgeMarker) DropsSnapshot() DropStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Drops
}

// classifyLocked runs the marking decision for size bytes of flow at
// virtual time now, updating per-flow counters. Caller holds m.mu.
func (m *EdgeMarker) classifyLocked(flow FlowID, size int, now time.Duration) Class {
	fm, reserved := m.meters[flow]
	if !reserved {
		return BestEffort
	}
	if fm.tb.Conform(size, now) {
		fm.premiumBytes += int64(size)
		return Premium
	}
	// Out-of-profile traffic of a reserved flow rides best effort.
	fm.demotedBytes += int64(size)
	m.Drops.Remarked++
	return BestEffort
}

// Receive classifies and marks the packet.
func (m *EdgeMarker) Receive(p *Packet) {
	m.mu.Lock()
	p.Class = m.classifyLocked(p.Flow, p.Size, m.nowFn())
	m.mu.Unlock()
	m.Next.Receive(p)
}

// MarkBytes classifies bytes of flow traffic offered at virtual time
// now against the same per-flow meter the packet path uses, without
// injecting packets into a pipeline: the traffic is metered in pktSize
// chunks (plus a remainder chunk) and the number of bytes that left
// the edge marked premium is returned; the rest ride best effort. This
// is the decision entry point the dataplane backends use.
func (m *EdgeMarker) MarkBytes(flow FlowID, bytes int64, pktSize int, now time.Duration) (premium int64) {
	if pktSize <= 0 {
		pktSize = 1250
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for bytes > 0 {
		size := pktSize
		if int64(size) > bytes {
			size = int(bytes)
		}
		if m.classifyLocked(flow, size, now) == Premium {
			premium += int64(size)
		}
		bytes -= int64(size)
	}
	return premium
}

// PolicerTotals is a policer's cumulative byte accounting.
type PolicerTotals struct {
	// PremiumPassedBytes counts premium bytes that conformed to the
	// aggregate profile and passed.
	PremiumPassedBytes int64
	// BestEffortBytes counts best-effort bytes forwarded untouched,
	// including premium excess remarked down to best effort.
	BestEffortBytes int64
	// ExcessPremiumBytes counts premium bytes offered beyond the
	// aggregate profile, whatever their excess treatment.
	ExcessPremiumBytes int64
	Drops              DropStats
}

// Policer is a per-aggregate ingress policer: it meters the *sum* of
// premium traffic entering a domain against the admitted aggregate
// profile, without distinguishing flows. Non-conforming premium
// packets are dropped, remarked or shaped per the SLA's excess
// treatment. Best-effort packets pass untouched.
//
// The policer is safe for concurrent use: the control plane
// reconfigures the aggregate from broker goroutines while the data
// path meters packets.
type Policer struct {
	sim    *dsim.Sim
	Next   Receiver
	Drops  DropStats
	excess sla.ExcessTreatment

	mu              sync.Mutex
	meter           *TokenBucket
	profile         sla.TrafficProfile
	premiumPassed   int64
	bestEffortBytes int64
	excessPremium   int64
}

// NewPolicer creates an ingress policer with the given aggregate
// profile.
func NewPolicer(sim *dsim.Sim, profile sla.TrafficProfile, excess sla.ExcessTreatment, next Receiver) *Policer {
	return &Policer{
		sim:     sim,
		Next:    next,
		meter:   NewTokenBucket(profile.Rate, profile.BucketBytes),
		profile: profile,
		excess:  excess,
	}
}

// SetAggregateRate reconfigures the admitted aggregate (what the BB
// does as reservations come and go).
func (po *Policer) SetAggregateRate(rate units.Bandwidth, bucketBytes int64) {
	po.mu.Lock()
	defer po.mu.Unlock()
	po.profile = sla.TrafficProfile{Rate: rate, BucketBytes: bucketBytes}
	po.meter = NewTokenBucket(rate, bucketBytes)
}

// AggregateProfile returns the currently configured aggregate profile.
func (po *Policer) AggregateProfile() sla.TrafficProfile {
	po.mu.Lock()
	defer po.mu.Unlock()
	return po.profile
}

// Totals returns the policer's cumulative byte accounting; safe to
// call while the data path runs.
func (po *Policer) Totals() PolicerTotals {
	po.mu.Lock()
	defer po.mu.Unlock()
	return PolicerTotals{
		PremiumPassedBytes: po.premiumPassed,
		BestEffortBytes:    po.bestEffortBytes,
		ExcessPremiumBytes: po.excessPremium,
		Drops:              po.Drops,
	}
}

// Receive polices premium packets against the aggregate profile.
func (po *Policer) Receive(p *Packet) {
	if p.Class != Premium {
		po.mu.Lock()
		po.bestEffortBytes += int64(p.Size)
		po.mu.Unlock()
		po.Next.Receive(p)
		return
	}
	now := po.sim.Now()
	po.mu.Lock()
	if po.meter.Conform(p.Size, now) {
		po.premiumPassed += int64(p.Size)
		po.mu.Unlock()
		po.Next.Receive(p)
		return
	}
	po.excessPremium += int64(p.Size)
	switch po.excess {
	case sla.Drop:
		po.Drops.Dropped++
		po.mu.Unlock()
	case sla.Remark:
		p.Class = BestEffort
		po.Drops.Remarked++
		po.bestEffortBytes += int64(p.Size)
		po.mu.Unlock()
		po.Next.Receive(p)
	case sla.Shape:
		po.Drops.Shaped++
		delay := po.meter.TimeToConform(p.Size, now)
		po.mu.Unlock()
		pkt := p
		if _, err := po.sim.After(delay, func() {
			po.mu.Lock()
			ok := po.meter.Conform(pkt.Size, po.sim.Now())
			if ok {
				po.premiumPassed += int64(pkt.Size)
			} else {
				po.Drops.Dropped++
			}
			po.mu.Unlock()
			if ok {
				po.Next.Receive(pkt)
			}
		}); err != nil {
			po.mu.Lock()
			po.Drops.Dropped++
			po.mu.Unlock()
		}
	default:
		po.mu.Unlock()
	}
}

// PoliceBytes meters bytes of aggregate premium traffic offered at
// virtual time now against the same aggregate meter the packet path
// uses, in pktSize chunks, and returns how many bytes conformed and
// passed. Non-conforming bytes are accounted per the excess treatment
// (dropped or remarked; shaping has no timed release on this byte
// path and counts as shaped-then-dropped). This is the decision entry
// point the dataplane backends use.
func (po *Policer) PoliceBytes(bytes int64, pktSize int, now time.Duration) (passed int64) {
	if pktSize <= 0 {
		pktSize = 1250
	}
	po.mu.Lock()
	defer po.mu.Unlock()
	for bytes > 0 {
		size := pktSize
		if int64(size) > bytes {
			size = int(bytes)
		}
		if po.meter.Conform(size, now) {
			po.premiumPassed += int64(size)
			passed += int64(size)
		} else {
			po.excessPremium += int64(size)
			switch po.excess {
			case sla.Remark:
				po.Drops.Remarked++
				po.bestEffortBytes += int64(size)
			case sla.Shape:
				po.Drops.Shaped++
				po.Drops.Dropped++
			default:
				po.Drops.Dropped++
			}
		}
		bytes -= int64(size)
	}
	return passed
}

// Link models an output port plus wire: strict-priority service
// (premium before best effort), finite per-class buffers, a
// transmission rate and a propagation delay.
type Link struct {
	sim      *dsim.Sim
	Capacity units.Bandwidth
	Prop     time.Duration
	Next     Receiver
	// BufferBytes bounds each queue; zero means 256 KB.
	premQ, beQ         *list.List
	premBytes, beBytes int
	bufLimit           int
	busy               bool
	Drops              DropStats
	TxBytes            int64
}

// NewLink creates a link feeding next.
func NewLink(sim *dsim.Sim, capacity units.Bandwidth, prop time.Duration, bufferBytes int, next Receiver) *Link {
	if bufferBytes <= 0 {
		bufferBytes = 256 * 1024
	}
	return &Link{
		sim:      sim,
		Capacity: capacity,
		Prop:     prop,
		Next:     next,
		premQ:    list.New(),
		beQ:      list.New(),
		bufLimit: bufferBytes,
	}
}

// Receive enqueues the packet, dropping on buffer overflow.
func (l *Link) Receive(p *Packet) {
	if p.Class == Premium {
		if l.premBytes+p.Size > l.bufLimit {
			l.Drops.Dropped++
			return
		}
		l.premQ.PushBack(p)
		l.premBytes += p.Size
	} else {
		if l.beBytes+p.Size > l.bufLimit {
			l.Drops.Dropped++
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
	if _, err := l.sim.After(tx, func() {
		l.TxBytes += int64(pkt.Size)
		// Delivery after propagation happens in parallel with the next
		// transmission.
		if _, err := l.sim.After(l.Prop, func() { l.Next.Receive(pkt) }); err != nil {
			l.Drops.Dropped++
		}
		l.transmitNext()
	}); err != nil {
		l.Drops.Dropped++
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
		st = &FlowStats{RxBytesByCls: make(map[Class]int64), FirstRx: s.sim.Now()}
		s.flows[p.Flow] = st
	}
	now := s.sim.Now()
	st.RxPackets++
	st.RxBytes += int64(p.Size)
	st.RxBytesByCls[p.Class] += int64(p.Size)
	st.LastRx = now
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

// Flows lists the flows observed.
func (s *Sink) Flows() []FlowID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FlowID, 0, len(s.flows))
	for f := range s.flows {
		out = append(out, f)
	}
	return out
}
