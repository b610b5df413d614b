package experiment

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"e2eqos/internal/transport"
)

// TestLossScriptDrawsOncePerMessage pins the sweep's loss model: one
// Float64 draw per message, in either direction, from a stream seeded
// per dialer, a loss when the draw is below p. The first 1 000
// decisions match a fresh rand.Rand's draws, every drop is counted, and
// a seed of 0 draws as 1.
func TestLossScriptDrawsOncePerMessage(t *testing.T) {
	const p = 0.1
	for _, c := range []struct{ seed, drawsAs int64 }{{42, 42}, {0, 1}} {
		var drops atomic.Int64
		script := lossScript(c.seed, p, &drops)
		want := rand.New(rand.NewSource(c.drawsAs))
		var lost int64
		for i := 0; i < 1000; i++ {
			action := transport.FaultPass
			if want.Float64() < p {
				action = transport.FaultDrop
				lost++
			}
			if got := script("bb.Domain1", i%3 != 0, nil); got != action {
				t.Fatalf("seed %d, decision %d: %v, want %v", c.seed, i, got, action)
			}
		}
		if drops.Load() != lost || lost == 0 {
			t.Errorf("seed %d: counted %d drops, drew %d", c.seed, drops.Load(), lost)
		}
	}
}
