package main

import (
	"fmt"
	"strconv"
	"time"

	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// Every input the program under test sees is a pure function of
// (seed, cycle number, field): two clients drawing cycles in any order,
// or one run drawing more cycles than another, still hand cycle n the
// same request. mix is the splitmix64 finaliser.
func mix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// draw returns a uniform value in [0, n) for (seed, cycle, field).
func draw(seed int64, cycle int64, field uint64, n int64) int64 {
	h := mix(mix(uint64(seed)) ^ mix(uint64(cycle)+0x51ED270B) + field*0xD6E8FEB86659FD93)
	return int64(h % uint64(n))
}

// Fields of one cycle's draw.
const (
	fieldBandwidth = iota + 1
	fieldStartJitter
	fieldEndJitter
	fieldBookStart
	fieldBookEnd
	fieldBookBandwidth
	fieldSubflow // + index within the batch
)

// tagOf is the marker every request of cycle n carries in an
// identifier the benchmark owns (the RAR id, the sub-flow ids). The
// span recorder finds it in the frames brokers exchange, which is how
// a downstream call is attributed to the cycle that caused it without
// decoding the frame. '~' is reserved by the brokers' route keys.
func tagOf(n int64) string { return fmt.Sprintf("-bq%08dq", n) }

// The test window: every request asks for bandwidth inside
// [t0-10min, t0+2h+10min), far enough ahead of the stepped clock that
// no run reaches it. Pre-booked reservations all contain t0+1h, so
// they overlap each other and every request.
const (
	testWindowLead = 7 * 24 * time.Hour
	testWindowSpan = 2 * time.Hour
	windowJitter   = 10 * time.Minute
)

// reserveOp is one reserve cycle's input.
type reserveOp struct {
	Cycle     int64           `json:"cycle"`
	RARID     string          `json:"rar_id"`
	Bandwidth units.Bandwidth `json:"bandwidth"`
	// StartBefore / EndAfter widen the test window by seeded jitter.
	StartBefore time.Duration `json:"start_before"`
	EndAfter    time.Duration `json:"end_after"`
}

func genReserve(seed, n int64) reserveOp {
	return reserveOp{
		Cycle:       n,
		RARID:       "rar" + tagOf(n),
		Bandwidth:   units.Bandwidth(1+draw(seed, n, fieldBandwidth, 10)) * units.Mbps,
		StartBefore: time.Duration(draw(seed, n, fieldStartJitter, int64(windowJitter))),
		EndAfter:    time.Duration(draw(seed, n, fieldEndJitter, int64(windowJitter))),
	}
}

// window places the op's window around t0, the start of the test
// window.
func (op reserveOp) window(t0 time.Time) units.Window {
	return units.Window{Start: t0.Add(-op.StartBefore), End: t0.Add(testWindowSpan + op.EndAfter)}
}

// booking is one pre-booked reservation of the booked2k tables: it
// starts in the first hour of the test window and ends in the second,
// both seed-staggered, so a request's sweep sees 2·bookings distinct
// edges.
type booking struct {
	Start     time.Duration   `json:"start"`
	End       time.Duration   `json:"end"`
	Bandwidth units.Bandwidth `json:"bandwidth"`
}

func genBooking(seed int64, table, i int) booking {
	n := int64(table)<<32 | int64(i)
	return booking{
		Start:     time.Duration(draw(seed, n, fieldBookStart, int64(time.Hour))),
		End:       time.Hour + time.Duration(1+draw(seed, n, fieldBookEnd, int64(time.Hour))),
		Bandwidth: units.Bandwidth(1+draw(seed, n, fieldBookBandwidth, 10)) * units.Mbps,
	}
}

func (b booking) window(t0 time.Time) units.Window {
	return units.Window{Start: t0.Add(b.Start), End: t0.Add(b.End)}
}

// batchOp is one tunnel cycle's input: size sub-flows to allocate, and
// the same ids to release.
type batchOp struct {
	Cycle   int64                 `json:"cycle"`
	Alloc   []signalling.TunnelOp `json:"alloc"`
	Release []signalling.TunnelOp `json:"release"`
}

// genBatch names cycle n's sub-flows "sf<tag>.<j>" with seeded sizes
// of 1-10 Mb/s. Standing sub-flows are the batches of negative cycles.
func genBatch(seed, n int64, size int) batchOp {
	op := batchOp{Cycle: n, Alloc: make([]signalling.TunnelOp, size), Release: make([]signalling.TunnelOp, size)}
	tag := tagOf(n)
	if n < 0 {
		tag = fmt.Sprintf("-st%08dq", -n)
	}
	for j := 0; j < size; j++ {
		id := "sf" + tag + "." + strconv.Itoa(j)
		bw := (1 + draw(seed, n, fieldSubflow+uint64(j), 10)) * int64(units.Mbps)
		op.Alloc[j] = signalling.TunnelOp{Action: signalling.OpAlloc, SubFlowID: id, Bandwidth: bw}
		op.Release[j] = signalling.TunnelOp{Action: signalling.OpRelease, SubFlowID: id}
	}
	return op
}
