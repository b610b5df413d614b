// Package netsim is a packet-level Differentiated Services network
// simulator built on the dsim event kernel. It provides the data plane
// the paper's architecture configures: edge token-bucket markers and
// per-aggregate ingress policers, priority (EF-style) queueing on
// links, constant-bit-rate traffic sources and measuring sinks.
//
// The simulator exists to reproduce the paper's Figure 4: because
// "Domain C polices traffic based on traffic aggregates, not on
// individual users, it cannot tell the difference between David's
// reserved traffic and Alice's reserved traffic", an incomplete
// (mis-)reservation upstream degrades an honest user's guaranteed
// flow.
package netsim

import "time"

// Class is a DiffServ per-hop-behaviour class.
type Class int

// Traffic classes.
const (
	// BestEffort is the default forwarding class.
	BestEffort Class = iota
	// Premium is the expedited-forwarding-style reserved class.
	Premium
)

func (c Class) String() string {
	if c == Premium {
		return "premium"
	}
	return "best-effort"
}

// FlowID identifies one end-to-end flow.
type FlowID string

// Packet is one simulated datagram.
type Packet struct {
	Flow FlowID
	// Size is the packet size in bytes (header + payload).
	Size int
	// Class is the current marking; edge devices may remark it.
	Class Class
	// Sent is the virtual time the source emitted the packet.
	Sent time.Duration
}

// newPacket stamps a fresh packet.
func newPacket(flow FlowID, size int, class Class, now time.Duration) *Packet {
	return &Packet{Flow: flow, Size: size, Class: class, Sent: now}
}

// Receiver is anything that can accept a packet: policers, links,
// sinks. Handing over a packet transfers ownership.
type Receiver interface {
	Receive(p *Packet)
}

// FlowStats accumulates per-flow counters at a sink.
type FlowStats struct {
	RxPackets    int64
	RxBytes      int64
	RxBytesByCls map[Class]int64
	// LatencySum accumulates per-packet one-way delay.
	LatencySum time.Duration
}

// Goodput returns the average received rate of the flow over the
// window [0, over] in bits per second.
func (s *FlowStats) Goodput(over time.Duration) float64 {
	if s == nil || over <= 0 {
		return 0
	}
	return float64(s.RxBytes*8) / over.Seconds()
}

// MeanLatency returns the average one-way delay of received packets.
func (s *FlowStats) MeanLatency() time.Duration {
	if s == nil || s.RxPackets == 0 {
		return 0
	}
	return s.LatencySum / time.Duration(s.RxPackets)
}
