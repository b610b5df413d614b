package obs

import (
	"math"
	"testing"
	"time"
)

func TestRateWindowSteadyState(t *testing.T) {
	w := NewRateWindow(10, time.Second)
	t0 := time.Unix(1000, 0)
	// 50 events/sec fed once a second for long enough to fill the ring.
	level := 0.0
	for i := 0; i <= 30; i++ {
		w.Sample(t0.Add(time.Duration(i)*time.Second), level)
		level += 50
	}
	got := w.Rate(t0.Add(30 * time.Second))
	if math.Abs(got-50) > 5 {
		t.Fatalf("steady rate = %v, want ~50/s", got)
	}
}

func TestRateWindowRampUpAndIdle(t *testing.T) {
	w := NewRateWindow(10, time.Second)
	t0 := time.Unix(2000, 0)
	// Two seconds of life at 100/s must not be diluted over the full
	// 10s window.
	w.Sample(t0, 0)
	w.Sample(t0.Add(time.Second), 100)
	w.Sample(t0.Add(2*time.Second), 200)
	if got := w.Rate(t0.Add(2 * time.Second)); math.Abs(got-100) > 15 {
		t.Fatalf("ramp-up rate = %v, want ~100/s", got)
	}
	// After the window slides past all activity the rate decays to 0.
	w.Sample(t0.Add(60*time.Second), 200)
	if got := w.Rate(t0.Add(60 * time.Second)); got != 0 {
		t.Fatalf("idle rate = %v, want 0", got)
	}
}

func TestRateWindowCounterRestart(t *testing.T) {
	w := NewRateWindow(10, time.Second)
	t0 := time.Unix(3000, 0)
	w.Sample(t0, 500)
	// A restarted broker starts its counters over; the level drop must
	// reset the base, not credit a negative delta.
	w.Sample(t0.Add(time.Second), 3)
	if got := w.Rate(t0.Add(time.Second)); got < 0 {
		t.Fatalf("rate = %v after restart, want >= 0", got)
	}
	w.Sample(t0.Add(2*time.Second), 53)
	if got := w.Rate(t0.Add(2 * time.Second)); got <= 0 {
		t.Fatalf("rate = %v, post-restart deltas must count", got)
	}
}

// TestRateWindowRestartMidWindowRecovers simulates the full restart
// shape a live `qosctl top` sees: a broker running at a steady rate,
// dying, and coming back with fresh zeroed counters mid-window. The
// reported rate must never go negative at any sample, and must return
// to the true steady rate once the window refills with post-restart
// deltas.
func TestRateWindowRestartMidWindowRecovers(t *testing.T) {
	w := NewRateWindow(10, time.Second)
	t0 := time.Unix(4000, 0)
	// 200/s until the ring is saturated.
	level := 0.0
	now := t0
	for i := 0; i <= 15; i++ {
		w.Sample(now, level)
		if got := w.Rate(now); got < 0 {
			t.Fatalf("rate = %v at sample %d, never negative", got, i)
		}
		level += 200
		now = now.Add(time.Second)
	}
	// Restart: the counter restarts from zero and resumes at 200/s.
	level = 0
	for i := 0; i <= 15; i++ {
		w.Sample(now, level)
		if got := w.Rate(now); got < 0 {
			t.Fatalf("rate = %v at post-restart sample %d, never negative", got, i)
		}
		level += 200
		now = now.Add(time.Second)
	}
	// The window now holds only post-restart deltas; the dropped level
	// must not have poisoned the steady rate.
	if got := w.Rate(now.Add(-time.Second)); math.Abs(got-200) > 25 {
		t.Fatalf("post-restart steady rate = %v, want ~200/s", got)
	}
}

func TestTopSnapshotClassifiesMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("req_total", "requests")
	g := r.Gauge("depth", "queue depth")
	q := r.Quantile("lat_seconds", "striped latency")
	top := NewTop("DomainA", r)

	t0 := time.Unix(5000, 0)
	top.Snapshot(t0) // prime the rate windows
	for i := 0; i < 100; i++ {
		c.Inc()
		q.Observe(0.002)
	}
	g.Set(7)
	snap := top.Snapshot(t0.Add(time.Second))

	if snap.Domain != "DomainA" || snap.WindowSec != 10 {
		t.Fatalf("bad snapshot header %+v", snap)
	}
	if rate := snap.Rates["req_total"]; rate <= 0 {
		t.Fatalf("counter rate = %v, want > 0", rate)
	}
	if snap.Gauges["depth"] != 7 {
		t.Fatalf("gauge = %v, want 7", snap.Gauges["depth"])
	}
	// Histogram scalars must not masquerade as gauges or rates.
	for _, name := range []string{"lat_seconds_count", "lat_seconds_sum"} {
		if _, ok := snap.Gauges[name]; ok {
			t.Fatalf("%s leaked into gauges", name)
		}
		if _, ok := snap.Rates[name]; ok {
			t.Fatalf("%s leaked into rates", name)
		}
	}
	qs, ok := snap.Quantiles["lat_seconds"]
	if !ok || qs.Count != 100 || qs.P50 <= 0 {
		t.Fatalf("bad quantile entry %+v (ok=%t)", qs, ok)
	}
}

func TestTopNilSafety(t *testing.T) {
	var top *Top
	snap := top.Snapshot(time.Unix(1, 0))
	if snap.Domain != "" || len(snap.Rates) != 0 {
		t.Fatalf("nil Top must report empty: %+v", snap)
	}
}

func TestSortedKeys(t *testing.T) {
	got := SortedKeys(map[string]int{"c": 1, "a": 2, "b": 3})
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}
