package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/obs"
)

// snapAt is a broker snapshot taken sec seconds into the test.
func snapAt(sec float64, values map[string]float64) *obs.TopSnapshot {
	return &obs.TopSnapshot{Domain: "DomainA", TimeNS: int64(sec * float64(time.Second)), Values: values}
}

func TestTopRatesSteady(t *testing.T) {
	// 50 events/s, polled once a second.
	prev := snapAt(0, map[string]float64{"req_total": 0})
	for i := 1; i <= 30; i++ {
		cur := snapAt(float64(i), map[string]float64{"req_total": float64(50 * i)})
		if rates, _ := topRates(prev, cur); rates["req_total"] != 50 {
			t.Fatalf("poll %d: rate = %v, want 50/s", i, rates["req_total"])
		}
		prev = cur
	}
}

// TestTopRatesAfterQuietMinute: a counter at 1 000 on the baseline
// poll and 1 600 on the next, 60 s later, grew 10/s. A 10 s window
// fed only by these polls credited all 600 to its last bucket and
// read 60/s.
func TestTopRatesAfterQuietMinute(t *testing.T) {
	rates, _ := topRates(snapAt(0, map[string]float64{"req_total": 1000}), snapAt(60, map[string]float64{"req_total": 1600}))
	if rates["req_total"] != 10 {
		t.Fatalf("rate = %v after 600 in 60 s, want 10.0/s", rates["req_total"])
	}
}

func TestTopRatesCounterRestart(t *testing.T) {
	// A restarted broker starts its counters over: the drop counts
	// from zero and never reads negative.
	before := snapAt(0, map[string]float64{"req_total": 500})
	restarted := snapAt(1, map[string]float64{"req_total": 3})
	if rates, _ := topRates(before, restarted); rates["req_total"] != 3 {
		t.Fatalf("rate = %v after restart, want 3/s (the new level from zero)", rates["req_total"])
	}
	after := snapAt(2, map[string]float64{"req_total": 53})
	if rates, _ := topRates(restarted, after); rates["req_total"] != 50 {
		t.Fatalf("rate = %v, post-restart growth must count", rates["req_total"])
	}
}

// TestTopRatesRestartMidRunRecovers: a broker at 200/s dies and comes
// back with zeroed counters. No poll reads negative, and the first
// poll after the restarted one reads the true rate again.
func TestTopRatesRestartMidRunRecovers(t *testing.T) {
	level, sec := 0.0, 0.0
	prev := snapAt(sec, map[string]float64{"req_total": level})
	for i := 0; i < 30; i++ {
		level, sec = level+200, sec+1
		if i == 15 {
			level = 0
		}
		cur := snapAt(sec, map[string]float64{"req_total": level})
		rates, _ := topRates(prev, cur)
		if r := rates["req_total"]; r < 0 || (i != 15 && r != 200) {
			t.Fatalf("poll %d: rate = %v, want 200/s (>= 0 at the restart)", i, r)
		}
		prev = cur
	}
}

func TestTopRatesIdleCounterHasNoRate(t *testing.T) {
	rates, _ := topRates(snapAt(0, map[string]float64{"req_total": 200}), snapAt(60, map[string]float64{"req_total": 200}))
	if r, ok := rates["req_total"]; ok {
		t.Fatalf("idle counter has rate %v, want no rate line", r)
	}
	var out bytes.Buffer
	renderTop(&out, "a", snapAt(0, map[string]float64{"req_total": 200}), snapAt(60, map[string]float64{"req_total": 200}))
	if strings.Contains(out.String(), "req_total") {
		t.Fatalf("idle counter rendered:\n%s", out.String())
	}
}

func TestTopRatesClassifiesSeries(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("req_total", "requests")
	g := r.Gauge("depth", "queue depth")
	q := r.Quantile("lat_seconds", "striped latency")
	prev := obs.NewTopSnapshot("DomainA", r)
	for i := 0; i < 100; i++ {
		c.Inc()
		q.Observe(0.002)
	}
	g.Set(7)
	cur := obs.NewTopSnapshot("DomainA", r)
	cur.TimeNS = prev.TimeNS + int64(time.Second)

	rates, gauges := topRates(&prev, &cur)
	if math.Abs(rates["req_total"]-100) > 1e-9 {
		t.Fatalf("counter rate = %v, want 100/s", rates["req_total"])
	}
	if _, ok := gauges["req_total"]; ok {
		t.Fatal("req_total leaked into gauges")
	}
	if gauges["depth"] != 7 {
		t.Fatalf("gauge = %v, want 7", gauges["depth"])
	}
	if _, ok := rates["depth"]; ok {
		t.Fatal("depth leaked into rates")
	}
	// Histogram scalars must not masquerade as gauges or rates.
	for _, name := range []string{"lat_seconds_count", "lat_seconds_sum"} {
		if _, ok := cur.Values[name]; !ok {
			t.Fatalf("%s missing from the snapshot", name)
		}
		if _, ok := gauges[name]; ok {
			t.Fatalf("%s leaked into gauges", name)
		}
		if _, ok := rates[name]; ok {
			t.Fatalf("%s leaked into rates", name)
		}
	}
	if qs := cur.Quantiles["lat_seconds"]; qs.Count != 100 || qs.P50 <= 0 {
		t.Fatalf("bad quantile entry %+v", qs)
	}
	// With no previous snapshot a counter has no rate yet.
	if rates, _ := topRates(nil, &cur); len(rates) != 0 {
		t.Fatalf("rates with no baseline = %v", rates)
	}
}

// TestTopFirstViewShowsBusyBrokerRate: at the default -n 1, the one
// view printed is the growth since a baseline poll, so a busy broker
// polled by no one else shows its rate. A window the broker fed from
// /top requests alone had seen one sample by then and read no rate.
func TestTopFirstViewShowsBusyBrokerRate(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("req_total", "requests")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		c.Add(100) // the broker is busy between any two polls
		_ = json.NewEncoder(w).Encode(obs.NewTopSnapshot("DomainA", r))
	}))
	defer srv.Close()

	var out bytes.Buffer
	pollTop(&out, []string{srv.Listener.Addr().String()}, 10*time.Millisecond, 1)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "DomainA") {
		t.Fatalf("want one view of one counter, got:\n%s", out.String())
	}
	if f := strings.Fields(lines[1]); len(f) != 2 || f[0] != "req_total" || !strings.HasSuffix(f[1], "/s") || f[1] == "0.0/s" {
		t.Fatalf("first view shows no rate for req_total:\n%s", out.String())
	}
}
