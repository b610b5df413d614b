package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/wire"
)

// span is one timed interval of one cycle. Client spans (Hop -1) are
// recorded by the load generator around its own call; hop spans are
// recorded where broker Hop's outbound connection sends a request and
// receives the matching response, so a hop span is the inbound span of
// broker Hop+1 as its caller saw it. Layer spans come from the ladder
// and carry the layer's name. Times are nanoseconds since the tracer
// started.
type span struct {
	Cycle  int64  `json:"rar"`
	Phase  string `json:"phase,omitempty"` // "acquire" | "release" | ladder layer
	Hop    int    `json:"hop"`
	Parent int    `json:"parent"` // hop of the enclosing span; -2 for a client span
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans in memory; nothing is written until the run
// has ended.
type tracer struct {
	t0 time.Time

	// brokers holds the well-known address of every domain's broker.
	// Only connections dialled to one of them carry requests; a replica
	// group's other connections carry its journal stream, whose records
	// quote the same RAR ids but belong to no hop.
	brokers map[string]bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), brokers: make(map[string]bool)}
}

// reset forgets what has been recorded so far (the warm-up cycles).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// client records the load generator's own span for one phase of a
// cycle.
func (t *tracer) client(cycle int64, phase string, start, end time.Time) {
	t.add(span{Cycle: cycle, Phase: phase, Hop: -1, Parent: -2, Start: t.since(start), End: t.since(end)})
}

// wrapDialer is the WorldConfig.WrapDialer hook: every connection the
// broker of domain hop opens is wrapped so its request/response pairs
// become spans.
func (t *tracer) wrapDialer(hop int, d transport.Dialer) transport.Dialer {
	return &tracedDialer{t: t, hop: hop, inner: d}
}

type tracedDialer struct {
	t     *tracer
	hop   int
	inner transport.Dialer
}

func (d *tracedDialer) Dial(addr string) (transport.Conn, error) {
	c, err := d.inner.Dial(addr)
	if err != nil || !d.t.brokers[addr] {
		return c, err
	}
	return &tracedConn{Conn: c, t: d.t, hop: d.hop, pending: make(map[uint64]pendingCall)}, nil
}

type pendingCall struct {
	cycle int64
	start time.Time
}

// tracedConn times each multiplexed call on one outbound connection:
// Send notes the call id and cycle tag of a request frame, Recv closes
// the span when the response with that id arrives.
type tracedConn struct {
	transport.Conn
	t   *tracer
	hop int

	mu      sync.Mutex
	pending map[uint64]pendingCall
}

func (c *tracedConn) Send(msg []byte) error {
	if cycle, ok := findTag(msg); ok {
		if id, ok := frameID(msg); ok {
			c.mu.Lock()
			c.pending[id] = pendingCall{cycle: cycle, start: time.Now()}
			c.mu.Unlock()
		}
	}
	return c.Conn.Send(msg)
}

func (c *tracedConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err != nil {
		return msg, err
	}
	end := time.Now()
	if id, ok := frameID(msg); ok {
		c.mu.Lock()
		p, found := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if found {
			c.t.add(span{Cycle: p.cycle, Hop: c.hop, Parent: c.hop - 1, Start: c.t.since(p.start), End: c.t.since(end)})
		}
	}
	return msg, nil
}

// frameID reads the call id of a binary signalling frame: magic,
// version and type byte, then the id as a varint — the same three-byte
// skip signalling's own peekID does. JSON frames have none to read.
func frameID(msg []byte) (uint64, bool) {
	if len(msg) <= 3 || msg[0] != signalling.BinMagic {
		return 0, false
	}
	d := wire.Dec{Buf: msg[3:]}
	id := d.Uvarint()
	return id, d.Err() == nil
}

var tagPrefix = []byte("-bq")

// findTag locates a cycle tag ("-bq" + 8 digits + "q") in a frame.
// Identifiers travel as plain strings in every codec the brokers
// speak, so the search needs no knowledge of the frame's layout.
func findTag(msg []byte) (int64, bool) {
	for off := 0; ; {
		i := bytes.Index(msg[off:], tagPrefix)
		if i < 0 {
			return 0, false
		}
		p := off + i + len(tagPrefix)
		if p+9 <= len(msg) && msg[p+8] == 'q' {
			var n int64
			ok := true
			for _, ch := range msg[p : p+8] {
				if ch < '0' || ch > '9' {
					ok = false
					break
				}
				n = n*10 + int64(ch-'0')
			}
			if ok {
				return n, true
			}
		}
		off = p
	}
}

// hopTimes is what one phase of one cycle cost, hop by hop.
type hopTimes struct {
	client time.Duration
	// self[k] is broker k's self time: its inbound span minus the part
	// of that interval its own downstream call covers.
	self []time.Duration
}

// selfTimes turns the spans of one phase of one cycle into per-hop
// self times. inbound[0] is the client span; inbound[k] for k >= 1 is
// hop span k-1. Each broker makes at most one downstream call per
// phase on these workloads, so the child's coverage is that one span,
// clipped to its parent and subtracted once. hops is the number of
// brokers on the path; ok is false when a span is missing.
func selfTimes(client span, hop []span, hops int) (hopTimes, bool) {
	if len(hop) != hops-1 {
		return hopTimes{}, false
	}
	inbound := make([]span, hops)
	inbound[0] = client
	for _, s := range hop {
		if s.Hop < 0 || s.Hop >= hops-1 || inbound[s.Hop+1].End != 0 {
			return hopTimes{}, false
		}
		inbound[s.Hop+1] = s
	}
	out := hopTimes{client: client.dur(), self: make([]time.Duration, hops)}
	for k := 0; k < hops; k++ {
		self := inbound[k].dur()
		if k+1 < hops {
			self -= covered(inbound[k], inbound[k+1])
		}
		out.self[k] = self
	}
	return out, true
}

// covered is how much of parent's interval child covers.
func covered(parent, child span) time.Duration {
	lo, hi := child.Start, child.End
	if lo < parent.Start {
		lo = parent.Start
	}
	if hi > parent.End {
		hi = parent.End
	}
	if hi <= lo {
		return 0
	}
	return time.Duration(hi - lo)
}

// assemble groups the recorded spans by cycle and phase and returns the
// per-hop self times of every complete acquire and release. A hop span
// belongs to the phase whose client span contains its start.
func (t *tracer) assemble(hops int) (acquire, release []hopTimes, incomplete int) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	type cycleSpans struct {
		acq, rel       *span
		acqHop, relHop []span
	}
	byCycle := make(map[int64]*cycleSpans)
	get := func(n int64) *cycleSpans {
		c := byCycle[n]
		if c == nil {
			c = &cycleSpans{}
			byCycle[n] = c
		}
		return c
	}
	for i := range spans {
		s := &spans[i]
		if s.Hop != -1 {
			continue
		}
		if s.Phase == "acquire" {
			get(s.Cycle).acq = s
		} else {
			get(s.Cycle).rel = s
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Hop < 0 {
			continue
		}
		c := byCycle[s.Cycle]
		switch {
		case c == nil:
		case c.acq != nil && s.Start >= c.acq.Start && s.Start <= c.acq.End:
			s.Phase = "acquire"
			c.acqHop = append(c.acqHop, *s)
		case c.rel != nil && s.Start >= c.rel.Start && s.Start <= c.rel.End:
			s.Phase = "release"
			c.relHop = append(c.relHop, *s)
		}
	}
	t.mu.Lock()
	t.spans = spans // phases filled in for the written trace
	t.mu.Unlock()
	cycles := make([]int64, 0, len(byCycle))
	for n := range byCycle {
		cycles = append(cycles, n)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	for _, n := range cycles {
		c := byCycle[n]
		if c.acq != nil {
			if ht, ok := selfTimes(*c.acq, c.acqHop, hops); ok {
				acquire = append(acquire, ht)
			} else {
				incomplete++
			}
		}
		if c.rel != nil {
			if ht, ok := selfTimes(*c.rel, c.relHop, hops); ok {
				release = append(release, ht)
			} else {
				incomplete++
			}
		}
	}
	return acquire, release, incomplete
}

// traceFile is what a traced run leaves on disk.
type traceFile struct {
	Workload string  `json:"workload"`
	Stamp    stamp   `json:"stamp"`
	Note     string  `json:"note"`
	Spans    []span  `json:"spans"`
	Ladder   []span  `json:"ladder_spans"`
	Layers   []layer `json:"ladder_layers"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
