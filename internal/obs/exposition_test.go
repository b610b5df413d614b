package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestExpositionGolden pins the exact Prometheus text exposition for
// one of every metric kind — headers, escaping, ordering, float
// formatting and the quantile summary — against
// testdata/exposition.golden. Run with -update to regenerate after an
// intentional format change.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_requests_total", "requests accepted").Add(42)
	r.Gauge("demo_depth", "queue depth\nsecond line with a \\ backslash").Set(3.5)
	r.GaugeFunc("demo_load", "sampled load", func() float64 { return 0.25 })
	q := r.Quantile("demo_lat_seconds", "striped latency")
	for i := 1; i <= 1000; i++ {
		// A deterministic spread, so the quantile lines get distinct
		// values, of multiples of 2^-17: every partial sum is exact, so
		// _sum does not depend on the order the histogram's stripes are
		// added up in (under -race sync.Pool sheds stripes and the order
		// changes).
		q.Observe(float64(i) / (1 << 17))
	}

	var sb strings.Builder
	r.WriteText(&sb)
	got := sb.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from %s (re-run with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("esc", "line one\nline two ends with \\")
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	want := `# HELP esc line one\nline two ends with \\`
	if !strings.Contains(out, want) {
		t.Fatalf("HELP not escaped, got:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 { // HELP + TYPE + value lines only
		t.Fatalf("raw newline leaked into exposition:\n%q", out)
	}
}
