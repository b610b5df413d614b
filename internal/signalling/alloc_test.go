package signalling

import "testing"

// TestEncodeAllocationFree is the gate behind `make bench-wire`: the
// encoders must not allocate when appending to a buffer with capacity.
// Decoding is allowed its bounded per-field allocations (strings,
// slices), but encoding a frame the RPC layer has a pooled buffer for
// must cost zero.
func TestEncodeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	msgs := goldenMessages()
	bufs := make([][]byte, len(msgs))
	for i, g := range msgs {
		bufs[i] = make([]byte, 0, 4096)
		_ = g.msg // warm nothing; AppendBinary has no lazy state
	}
	for i, g := range msgs {
		g := g
		buf := bufs[i]
		// The result golden carries a PolicyInfo map, whose canonical
		// key-sort allocates by design (cold path). Gate every other
		// message at zero and the map case at its documented bound.
		limit := 0.0
		if g.msg.Result != nil && len(g.msg.Result.PolicyInfo) > 0 {
			limit = 1.0
		}
		got := testing.AllocsPerRun(200, func() {
			buf = g.msg.AppendBinary(buf[:0])
		})
		if got > limit {
			t.Errorf("%s: AppendBinary allocates %.1f per op, want <= %.0f", g.name, got, limit)
		}
	}
}
