package experiment

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/units"
)

// TestScaleLoadConfigValidation pins the config check RunScaleLoad
// used to skip: a negative latency was silently absorbed.
func TestScaleLoadConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     ScaleLoadConfig
		wantErr string
	}{
		{
			name:    "negative latency",
			cfg:     ScaleLoadConfig{Latency: -time.Millisecond},
			wantErr: "Latency",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunScaleLoad(tc.cfg)
			if err == nil {
				t.Fatalf("RunScaleLoad(%+v) succeeded, want error containing %q", tc.cfg, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestScaleLoadConfigAccepts pins the boundary values that must keep
// working: a zero is a value, not a reason to reject.
func TestScaleLoadConfigAccepts(t *testing.T) {
	cases := []struct {
		name string
		cfg  ScaleLoadConfig
	}{
		{name: "zero everything defaults", cfg: ScaleLoadConfig{}},
		{name: "zero latency", cfg: ScaleLoadConfig{Latency: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.validate(); err != nil {
				t.Fatalf("validate(%+v): %v", tc.cfg, err)
			}
		})
	}
}

// BenchmarkConcurrentReserveChain measures end-to-end reserve
// throughput over a 4-domain chain with a modelled 2ms one-way hop
// latency, as the number of parallel requesters grows. All requesters
// share one user agent, so their calls multiplex over the same pooled
// connections. parallel=1 is the serialized baseline (one call in
// flight per connection — what the pre-mux client enforced
// structurally); the higher arms overlap the wire latency across
// in-flight calls and should scale until CPU-bound. Run it with
//
//	go test -run NONE -bench ConcurrentReserveChain -benchtime 2s ./internal/experiment
func BenchmarkConcurrentReserveChain(b *testing.B) {
	for _, parallel := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			w, err := BuildWorld(WorldConfig{
				NumDomains:  4,
				Capacity:    units.Bandwidth(1000) * units.Gbps,
				Latency:     2 * time.Millisecond,
				CallTimeout: 5 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(w.Close)
			u, err := w.NewUser("alice", "", nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(u.Close)
			warm := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
			if res, err := u.ReserveE2E(warm); err != nil || !res.Granted {
				b.Fatalf("warmup failed: %v %+v", err, res)
			}
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			errc := make(chan error, parallel)
			for g := 0; g < parallel; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
						res, err := u.ReserveE2E(spec)
						if err != nil || !res.Granted {
							errc <- fmt.Errorf("reserve failed: %v %+v", err, res)
							return
						}
					}
				}()
			}
			wg.Wait()
			select {
			case err := <-errc:
				b.Fatal(err)
			default:
			}
		})
	}
}
