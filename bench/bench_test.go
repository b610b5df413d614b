package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/signalling"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileRules(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5.5}, {0.95, 9.55}, {1, 10}} {
		if got := percentile(sorted, c.q); !near(got, c.want) {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples must be 0")
	}
	if got := percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	// A percentile is supported when at least minBeyond samples lie
	// beyond it: p95 needs 200 samples, p99 needs 1000.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{199, 0.95, false}, {200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestPercentileMS(t *testing.T) {
	samples := []time.Duration{4 * time.Millisecond, time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	if got := percentileMS(samples, 0.5); !near(got, 2.5) {
		t.Errorf("p50 = %v ms, want 2.5", got)
	}
	if got := percentileMS(samples, 1); !near(got, 4) {
		t.Errorf("max = %v ms, want 4", got)
	}
	if percentileMS(nil, 0.5) != 0 {
		t.Error("no samples must read 0")
	}
}

// TestWindowMedians: the per-window figures are medians over the
// windows that completed a cycle, and the slowdown is the median
// reference unit over nominal.
func TestWindowMedians(t *testing.T) {
	m := &meter{windows: []windowCost{
		{wall: time.Second, cpu: 2 * time.Second, cycles: 100, units: []time.Duration{referenceNominal}},
		{wall: time.Second, cpu: 4 * time.Second, cycles: 100, units: []time.Duration{2 * referenceNominal}},
		{wall: time.Second, cpu: 90 * time.Second, cycles: 100, units: []time.Duration{3 * referenceNominal}}, // one stalled window
		{wall: time.Second}, // no cycle completed: not counted
	}}
	if got := m.overWindows(func(w windowCost) float64 { return ms(w.cpu) / float64(w.cycles) }); !near(got, 40) {
		t.Errorf("median cpu per cycle = %v ms, want 40", got)
	}
	if got := m.slowdown(window); !near(got, 2) {
		t.Errorf("slowdown = %v, want 2", got)
	}
}

// TestSlowdownByLength: a CPU taken away for one unit in four slows
// work many units long by the lost share and leaves the median of
// one-unit work alone.
func TestSlowdownByLength(t *testing.T) {
	units := make([]time.Duration, 16)
	for i := range units {
		units[i] = referenceNominal
		if i%4 == 3 {
			units[i] += 4 * referenceNominal // the gap
		}
	}
	if got := slowdownAt(units, referenceNominal/3); !near(got, 1) {
		t.Errorf("slowdown of short work = %v, want 1", got)
	}
	if got := slowdownAt(units, 4*referenceNominal); !near(got, 2) {
		t.Errorf("slowdown of four-unit work = %v, want 2", got)
	}
	if got := slowdownAt(units, time.Hour); !near(got, 2) {
		t.Errorf("slowdown of work longer than the timing = %v, want 2", got)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(vals), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5].
	if got, want := quartileSpread([]float64{3, 5}), 3.0/4.0; !near(got, want) {
		t.Errorf("quartileSpread of two = %v, want %v", got, want)
	}
	if quartileSpread([]float64{7}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	client := span{Hop: -1, Start: 0, End: 100}
	hop0 := span{Hop: 0, Start: 10, End: 90} // broker 0's call = broker 1's inbound
	hop1 := span{Hop: 1, Start: 30, End: 60} // broker 1's call = broker 2's inbound
	ht, ok := selfTimes(client, []span{hop1, hop0}, 3)
	if !ok {
		t.Fatal("complete span set rejected")
	}
	// Child coverage is subtracted once, from its parent only.
	if want := []time.Duration{20, 50, 30}; !reflect.DeepEqual(ht.self, want) {
		t.Errorf("self = %v, want %v", ht.self, want)
	}
	var sum time.Duration
	for _, d := range ht.self {
		sum += d
	}
	if sum != ht.client || ht.client != 100 {
		t.Errorf("self times sum to %v, client span is %v", sum, ht.client)
	}
	// A child that outlives its parent only covers the overlap.
	late := span{Hop: 0, Start: 80, End: 130}
	ht, ok = selfTimes(client, []span{late}, 2)
	if !ok || ht.self[0] != 80 || ht.self[1] != 50 {
		t.Errorf("clipped child: self = %v ok=%v, want [80 50]", ht.self, ok)
	}
	if _, ok := selfTimes(client, []span{hop0}, 3); ok {
		t.Error("missing hop span accepted")
	}
	if _, ok := selfTimes(client, []span{hop0, hop0}, 3); ok {
		t.Error("duplicate hop span accepted")
	}
}

func TestAssembleAssignsPhases(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.t0.Add(time.Duration(ns)) }
	tr.client(7, "acquire", at(0), at(100))
	tr.client(7, "release", at(200), at(260))
	tr.add(span{Cycle: 7, Hop: 0, Start: 10, End: 90})
	tr.add(span{Cycle: 7, Hop: 0, Start: 210, End: 250})
	tr.add(span{Cycle: 99, Hop: 0, Start: 10, End: 90}) // no client span: ignored
	acq, rel, incomplete := tr.assemble(2)
	if len(acq) != 1 || len(rel) != 1 || incomplete != 0 {
		t.Fatalf("assemble: %d acquire, %d release, %d incomplete", len(acq), len(rel), incomplete)
	}
	if acq[0].self[0] != 20 || acq[0].self[1] != 80 || rel[0].self[0] != 20 || rel[0].self[1] != 40 {
		t.Errorf("self times: acquire %v release %v", acq[0].self, rel[0].self)
	}
}

func TestFrameTagAndID(t *testing.T) {
	msg := &signalling.Message{Type: signalling.MsgCancel, ID: 300, Cancel: &signalling.CancelPayload{RARID: "rar" + tagOf(42)}}
	frame, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := findTag(frame); !ok || n != 42 {
		t.Errorf("findTag = %d, %v; want 42", n, ok)
	}
	if id, ok := frameID(frame); !ok || id != 300 {
		t.Errorf("frameID = %d, %v; want 300", id, ok)
	}
	// A look-alike before the real tag is skipped, not misread.
	if n, ok := findTag([]byte("x-bq12-bqzzzzzzzzq" + tagOf(9))); !ok || n != 9 {
		t.Errorf("findTag past look-alikes = %d, %v; want 9", n, ok)
	}
	if _, ok := findTag([]byte("no tag here -bq1234")); ok {
		t.Error("truncated tag accepted")
	}
	if _, ok := frameID([]byte(`{"id":3}`)); ok {
		t.Error("JSON frame yielded a binary id")
	}
}

// opList renders the first inputs a workload would generate.
func opList(t *testing.T, wl *workload, seed int64) []byte {
	t.Helper()
	var ops []any
	for n := int64(1); n <= 40; n++ {
		if wl.batch > 0 {
			ops = append(ops, genBatch(seed, n, wl.batch))
		} else {
			ops = append(ops, genReserve(seed, n))
		}
	}
	for i := 0; i < min(wl.bookings, 40); i++ {
		ops = append(ops, genBooking(seed, 1, i))
	}
	data, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, b, other := opList(t, wl, 5), opList(t, wl, 5), opList(t, wl, 6)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 5 generated two different op lists", wl.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 5 and 6 generated the same op list", wl.name)
		}
	}
	for n := int64(1); n < 1000; n++ {
		op := genReserve(3, n)
		if bw := op.Bandwidth.Mbits(); bw < 1 || bw > 10 {
			t.Fatalf("cycle %d asks for %v Mb/s, want 1-10", n, bw)
		}
		b := genBooking(3, 0, int(n))
		if b.Start >= time.Hour || b.End <= time.Hour || b.End > 2*time.Hour {
			t.Fatalf("booking %d spans [%v, %v): every booking must contain the test window's first hour mark", n, b.Start, b.End)
		}
	}
}

// TestDeclarationMatchesCatalogue holds BENCHMARK.json and the
// benchmark's own lists together.
func TestDeclarationMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(decl.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", decl.Command, decl.Paths)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d declared as %q (%q), built as %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n declared %+v\n built    %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n declared %+v\n built    %+v", decl.PerLayer, perLayer)
	}
	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "acquire_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "cycles_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name           string
		parent, change []float64
		d              metricDef
		want           string
	}{
		{"single runs inside the bound", []float64{10}, []float64{10.9}, lower, verdictWithin},
		{"single runs beyond the bound", []float64{10}, []float64{11.1}, lower, verdictWorse},
		{"a drop in a higher-is-better metric", []float64{100}, []float64{85}, higher, verdictWorse},
		{"every run better than every parent run", []float64{10, 10.2, 10.1}, []float64{8, 8.1, 8.2}, lower, verdictBetter},
		{"median better but inside the parent's spread", []float64{10, 10.4, 10.8, 11.2}, []float64{10.5, 10.1, 10.3, 10.4}, lower, verdictWithin},
		{"parent spread wider than the bound", []float64{8, 10, 12, 14}, []float64{13, 13, 13, 13}, lower, verdictUnresolved},
		{"steady parent, change worse", []float64{10, 10.1, 10.2, 10.1}, []float64{11.5, 11.6, 11.4, 11.5}, lower, verdictWorse},
	} {
		if got, _, _ := judge(c.parent, c.change, c.d); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rows ...row) string {
		var buf bytes.Buffer
		for _, r := range rows {
			data, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(data, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mk := func(p50 float64, failed int) row {
		return row{Workload: "chain8_reserve", Correct: true, Attempted: 100, Failed: failed,
			EndToEnd: map[string]metric{"acquire_p50_ms": {Value: p50, Unit: "ms"}}}
	}
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "acquire_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	parent := write("parent.jsonl", mk(10, 0), mk(10.1, 0))
	for _, c := range []struct {
		name   string
		change string
		worse  int
	}{
		{"same", write("same.jsonl", mk(10.05, 0), mk(10.2, 0)), 0},
		{"slower", write("slower.jsonl", mk(12, 0), mk(12.1, 0)), 1},
		{"failing", write("failing.jsonl", mk(10, 3)), 1},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, spec, parent, c.change)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse {
			t.Errorf("%s: %d pairs worse, want %d\n%s", c.name, worse, c.worse, out.String())
		}
		if !strings.Contains(out.String(), "acquire_p50_ms") {
			t.Errorf("%s: no row for acquire_p50_ms:\n%s", c.name, out.String())
		}
	}
}

// shrunk is wl with its pre-booked and standing populations cut down:
// the smoke tests exercise the machinery, not the scale.
func shrunk(wl *workload) *workload {
	w := *wl
	w.bookings = min(w.bookings, 100)
	w.standing = min(w.standing, 4*w.batch)
	return &w
}

func TestSmokeEveryWorkload(t *testing.T) {
	for i := range workloads {
		wl := shrunk(&workloads[i])
		t.Run(wl.name, func(t *testing.T) {
			in, err := wl.setup(11, nil, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			in.runCycles(20)
			if in.completed != 20 || in.failed != 0 || in.attempted != 40 {
				t.Errorf("20 cycles: completed=%d attempted=%d failed=%d (%v)", in.completed, in.attempted, in.failed, in.firstErr)
			}
			if len(in.acquire) != 20 || len(in.release) != 20 {
				t.Errorf("%d acquire and %d release samples, want 20 each", len(in.acquire), len(in.release))
			}
			if bad := in.check(); len(bad) != 0 {
				t.Errorf("output checks failed: %v", bad)
			}
			// The checks must notice a stranded reservation.
			if wl.batch == 0 {
				in.prepare()
				if err := in.doAcquire(); err != nil {
					t.Fatal(err)
				}
				in.quiesce = 20 * time.Millisecond
				if bad := in.check(); len(bad) == 0 {
					t.Error("a reservation left standing passed the checks")
				}
				if err := in.doRelease(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	for _, name := range []string{"replicated3_reserve", "tunnel_batch256"} {
		wl := shrunk(findWorkload(name))
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := runTraced(wl, 4, 1, dir, stamp{})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Errorf("correct=%v failed=%d problems=%v", r.Correct, r.Failed, r.Problems)
			}
			for _, d := range perLayer {
				if _, ok := r.PerLayer[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			for _, must := range []string{"bb.hop_self_ms_mean", "ladder.acquire_ms_sum", "trace.overhead_ratio", "transport.msgs_per_cycle", "signalling.encode_us"} {
				if r.PerLayer[must].Value <= 0 {
					t.Errorf("%s = %v, want > 0", must, r.PerLayer[must].Value)
				}
			}
			if r.Samples["hop_span_sets"] != r.TracedCycles {
				t.Errorf("%d complete hop-span sets for %d traced cycles", r.Samples["hop_span_sets"], r.TracedCycles)
			}
			data, err := os.ReadFile(filepath.Join(dir, name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 || len(tf.Ladder) == 0 || len(tf.Layers) == 0 {
				t.Errorf("trace file holds %d spans, %d ladder spans, %d layers", len(tf.Spans), len(tf.Ladder), len(tf.Layers))
			}
		})
	}
}
