package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// The disabled path: a nil registry hands out nil handles whose
	// methods must all no-op without panicking.
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Quantile("x_seconds", "")
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(0.5)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read zero")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if r.Snapshot() != nil {
		t.Fatal("nil registry must report nothing")
	}
	var sb strings.Builder
	r.WriteText(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil registry must expose nothing")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(4)
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b help").Inc()
	r.Gauge("a", "a help").Set(7)
	r.GaugeFunc("c", "c help", func() float64 { return 2.5 })
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	// Sorted by name, each with HELP and TYPE headers.
	wantOrder := []string{
		"# HELP a a help", "# TYPE a gauge", "a 7",
		"# HELP b_total b help", "# TYPE b_total counter", "b_total 1",
		"# HELP c c help", "# TYPE c gauge", "c 2.5",
	}
	pos := 0
	for _, want := range wantOrder {
		i := strings.Index(out[pos:], want)
		if i < 0 {
			t.Fatalf("exposition missing or misordered %q:\n%s", want, out)
		}
		pos += i + len(want)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("n_total", "events").Add(5)
	r.Gauge("g", "level").Set(1.5)
	r.GaugeFunc("f", "computed", func() float64 { return 9 })
	h := r.Quantile("h_seconds", "latency")
	h.Observe(2)
	snap := r.Snapshot()
	for k, want := range map[string]float64{
		"n_total": 5, "g": 1.5, "f": 9, "h_seconds_count": 1, "h_seconds_sum": 2,
	} {
		if snap[k] != want {
			t.Fatalf("snapshot[%s] = %v, want %v", k, snap[k], want)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"": slog.LevelInfo, "info": slog.LevelInfo, "DEBUG": slog.LevelDebug,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("ParseLevel must reject unknown levels")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, slog.LevelInfo, "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", AttrDomain, "DomainA")
	if !strings.Contains(buf.String(), `"domain":"DomainA"`) {
		t.Fatalf("json log missing domain attr: %s", buf.String())
	}
	if _, err := NewLogger(&buf, slog.LevelInfo, "xml"); err == nil {
		t.Fatal("NewLogger must reject unknown formats")
	}
	// Debug is below the configured level and must be dropped.
	buf.Reset()
	lg.Debug("quiet")
	if buf.Len() != 0 {
		t.Fatal("level filter not applied")
	}
}

func TestBrokerLoggerNilBase(t *testing.T) {
	lg := BrokerLogger(nil, "DomainA")
	if lg == nil {
		t.Fatal("BrokerLogger must never return nil")
	}
	lg.Error("dropped") // must not panic, must not write anywhere
}

func TestRenderTimeline(t *testing.T) {
	// Wire order is destination first; the rendering walks source to
	// destination.
	spans := []Span{
		{Domain: "DomainC", Verdict: VerdictDenied, Reason: "policy denied", TotalNS: 1e6},
		{Domain: "DomainB", Verdict: VerdictRolledBack, TotalNS: 2e6, DownstreamNS: 1.2e6},
		{Domain: "DomainA", Verdict: VerdictRolledBack, TotalNS: 3e6, Retries: 1},
	}
	out := RenderTimeline("t-0011223344556677", spans)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header + 3 hops, got:\n%s", out)
	}
	if !strings.Contains(lines[0], "t-0011223344556677") || !strings.Contains(lines[0], "3 hops") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "hop 1 DomainA") || !strings.Contains(lines[1], "retries=1") {
		t.Fatalf("bad hop 1: %s", lines[1])
	}
	if !strings.Contains(lines[3], "hop 3 DomainC") || !strings.Contains(lines[3], `reason="policy denied"`) {
		t.Fatalf("bad hop 3: %s", lines[3])
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 18 || !strings.HasPrefix(a, "t-") {
		t.Fatalf("bad trace id %q", a)
	}
	if a == b {
		t.Fatal("trace ids must be unique")
	}
}
