package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// refQuantile is the exact quantile under the same rank convention
// the histogram uses: the ceil(q*n)-th smallest observation.
func refQuantile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestQHistQuantileAccuracy pins the acceptance bound: against a
// log-uniform latency population spanning six decades, every reported
// quantile must sit within 1% relative error of the exact rank value.
func TestQHistQuantileAccuracy(t *testing.T) {
	h := NewQHist("q_seconds", "latency")
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, 200_000)
	for i := range values {
		// 1µs .. 1s, log-uniform: every octave gets real mass.
		values[i] = math.Pow(10, -6+6*rng.Float64())
		h.Observe(values[i])
	}
	sort.Float64s(values)
	s := h.snapshot()
	for _, c := range []struct{ q, got float64 }{{0.5, s.P50}, {0.9, s.P90}, {0.99, s.P99}, {0.999, s.P999}} {
		q, got := c.q, c.got
		want := refQuantile(values, q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q=%v: got %v want %v (rel err %.4f, budget 0.01)", q, got, want, rel)
		}
	}
	if h.Count() != uint64(len(values)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(values))
	}
	var wantSum float64
	for _, v := range values {
		wantSum += v
	}
	if rel := math.Abs(h.Sum()-wantSum) / wantSum; rel > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestQHistClampingAndNaN(t *testing.T) {
	h := NewQHist("q_seconds", "latency")
	h.Observe(math.NaN()) // dropped entirely
	if h.Count() != 0 {
		t.Fatal("NaN must not be counted")
	}
	h.Observe(-5)           // clamps to min
	h.Observe(0)            // clamps to min
	h.Observe(math.Inf(1))  // clamps to max
	h.Observe(1e9)          // clamps to max
	h.Observe(math.Inf(-1)) // clamps to min
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	wantSum := 3*quantileMin + 2*quantileMax
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v (out-of-range must clamp, not poison)", h.Sum(), wantSum)
	}
	if q := h.snapshot().P999; q > quantileMax || q < quantileMax/2 {
		t.Fatalf("max quantile %v escaped the top octave", q)
	}
}

func TestQHistEmptyAndNil(t *testing.T) {
	var nilH *QHist
	nilH.Observe(1)
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil QHist must read zero")
	}
	h := NewQHist("q_seconds", "latency")
	if s := h.snapshot(); s.P50 != 0 || s.P999 != 0 {
		t.Fatal("empty histogram must report 0")
	}
}

func TestQHistBucketBoundsMonotone(t *testing.T) {
	h := NewQHist("q_seconds", "latency")
	prev := h.bound(0)
	if prev != h.minVal {
		t.Fatalf("bound(0) = %v, want %v", prev, h.minVal)
	}
	for i := 1; i <= h.n; i++ {
		b := h.bound(i)
		if b <= prev {
			t.Fatalf("bound(%d) = %v not > bound(%d) = %v", i, b, i-1, prev)
		}
		prev = b
	}
	if prev != h.maxVal {
		t.Fatalf("bound(n) = %v, want max %v", prev, h.maxVal)
	}
	// Every bucket's midpoint must land back in its own bucket: the
	// index computed from the bit pattern agrees with the boundaries.
	for i := 0; i < h.n; i++ {
		if got := h.bucketIndex(h.mid(i)); got != i {
			t.Fatalf("bucketIndex(mid(%d)) = %d", i, got)
		}
	}
}

// TestQHistConcurrentObserveAndExpose is the race battery: hammer
// Observe from 8 goroutines while concurrently merging, exposing and
// reading quantiles. Run under -race it checks the synchronization
// story; in a normal build it checks that no observation is lost.
func TestQHistConcurrentObserveAndExpose(t *testing.T) {
	r := NewRegistry()
	h := r.Quantile("q_seconds", "latency")
	const goroutines = 8
	const perG = 20_000
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader: exposition + snapshots while writes fly
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var sb strings.Builder
			r.WriteText(&sb)
			_ = r.Quantiles()
		}
	}()
	var writers sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Observe(1e-6 + rng.Float64()/1000)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	<-readerDone
	if h.Count() != goroutines*perG {
		t.Fatalf("count = %d, want %d (lost observations)", h.Count(), goroutines*perG)
	}
	snap := r.Quantiles()["q_seconds"]
	if snap.Count != goroutines*perG || snap.P50 <= 0 || snap.P999 < snap.P50 {
		t.Fatalf("bad snapshot %+v", snap)
	}
}

// TestQHistObserveAllocationFree gates the telemetry hot path: one
// observation must not allocate, or fleet-rate instrumentation would
// feed the GC.
func TestQHistObserveAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	h := NewQHist("q_seconds", "latency")
	h.Observe(0.001) // settle the pool
	got := testing.AllocsPerRun(1000, func() {
		h.Observe(0.000123)
	})
	if got > 0 {
		t.Errorf("QHist.Observe allocates %.1f per op, want 0", got)
	}
}

func TestRegistrySnapshotIncludesQHist(t *testing.T) {
	r := NewRegistry()
	h := r.Quantile("q_seconds", "latency")
	h.Observe(0.5)
	h.Observe(0.25)
	snap := r.Snapshot()
	if snap["q_seconds_count"] != 2 {
		t.Fatalf("snapshot count = %v, want 2", snap["q_seconds_count"])
	}
	if snap["q_seconds_sum"] != 0.75 {
		t.Fatalf("snapshot sum = %v, want 0.75", snap["q_seconds_sum"])
	}
}

func TestQHistExposeSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Quantile("q_seconds", "latency quantiles")
	for i := 0; i < 1000; i++ {
		h.Observe(0.001)
	}
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP q_seconds latency quantiles",
		"# TYPE q_seconds summary",
		`q_seconds{quantile="0.5"}`,
		`q_seconds{quantile="0.99"}`,
		`q_seconds{quantile="0.999"}`,
		"q_seconds_count 1000",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkQHistObserveParallel measures the contended hot path (`make
// bench-obs`, BENCH_obs.json): 0 allocs/op, and flat as GOMAXPROCS goes
// from 1 to 8.
func BenchmarkQHistObserveParallel(b *testing.B) {
	h := NewQHist("q_seconds", "latency")
	b.SetParallelism(1) // GOMAXPROCS workers
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.000123)
		}
	})
}

func BenchmarkQHistQuantile(b *testing.B) {
	h := NewQHist("q_seconds", "latency")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		h.Observe(math.Pow(10, -6+6*rng.Float64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts, count, _ := h.merged()
		_ = quantileOf(h, counts, count, 0.999)
	}
}
