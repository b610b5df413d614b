package obs

import (
	"strings"
	"testing"
)

// The metrics-lint tier (`make metrics-lint`) runs the TestMetricsLint
// tests here and in internal/experiment: the registry enforces the
// naming rules by panicking at registration time, and these tests pin
// that enforcement so a rule regression fails CI rather than silently
// admitting bad names.

func mustPanic(t *testing.T, wantSubstr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", wantSubstr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, wantSubstr) {
			t.Fatalf("panic %v does not mention %q", r, wantSubstr)
		}
	}()
	f()
}

func TestMetricsLintNameRule(t *testing.T) {
	for _, bad := range []string{"Total", "x-y", "1x", "x.y", "", "x y", "réqs"} {
		bad := bad
		mustPanic(t, "lowercase_snake", func() {
			NewRegistry().Gauge(bad, "")
		})
	}
	// The boundary cases that must pass.
	r := NewRegistry()
	r.Gauge("a", "a")
	r.Gauge("a2_b_c", "boundary name")
}

func TestMetricsLintCounterSuffix(t *testing.T) {
	mustPanic(t, "_total", func() {
		NewRegistry().Counter("requests", "requests served")
	})
	NewRegistry().Counter("requests_total", "requests served")
}

func TestMetricsLintNonEmptyHelp(t *testing.T) {
	// Every registration kind must refuse an empty HELP string: an
	// undocumented metric is a lint error, not a rendering quirk.
	mustPanic(t, "empty HELP", func() {
		NewRegistry().Counter("x_total", "")
	})
	mustPanic(t, "empty HELP", func() {
		NewRegistry().Gauge("x", "")
	})
	mustPanic(t, "empty HELP", func() {
		NewRegistry().GaugeFunc("x", "", func() float64 { return 0 })
	})
	mustPanic(t, "empty HELP", func() {
		NewRegistry().Quantile("x_seconds", "")
	})
	r := NewRegistry()
	r.Counter("x_total", "documented")
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "# HELP x_total documented\n") {
		t.Fatalf("exposition carries no HELP line for x_total:\n%s", sb.String())
	}
}

func TestMetricsLintRegisteredExactlyOnce(t *testing.T) {
	r := NewRegistry()
	r.Gauge("depth", "queue depth")
	mustPanic(t, "registered twice", func() {
		r.Gauge("depth", "queue depth")
	})
	mustPanic(t, "registered twice", func() {
		r.GaugeFunc("depth", "queue depth", func() float64 { return 0 })
	})
}
