package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// nameRE is the lowercase_snake rule every metric name must satisfy.
var nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// metric is anything the registry can expose.
type metric interface {
	expose(w io.Writer)
}

// Counter is a monotonically increasing count. All methods are no-ops
// on a nil receiver, so disabled observability threads the same code.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) expose(w io.Writer) {
	writeHeader(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// Gauge is a value that can go up and down, stored as a float64.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) expose(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.Value()))
}

// gaugeFunc samples a callback at exposition time: for values the
// system already tracks (reserved bandwidth, open tunnels) a callback
// avoids double bookkeeping.
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

func (g *gaugeFunc) expose(w io.Writer) {
	writeHeader(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.name, formatFloat(g.fn()))
}

// Registry owns a set of uniquely named metrics. A nil *Registry is
// the disabled state: it hands out nil handles whose methods no-op.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]metric
	ordered []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// register enforces the naming, non-empty-HELP and exactly-once rules;
// violations are programming errors and panic (turned into test
// failures by lint_test.go and `make metrics-lint`).
func (r *Registry) register(name, help string, m metric) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: metric name %q is not lowercase_snake", name))
	}
	if help == "" {
		panic(fmt.Sprintf("obs: metric %q registered with empty HELP text", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.byName[name] = m
	r.ordered = append(r.ordered, name)
}

// Counter registers and returns a counter. Counter names must end in
// _total per Prometheus convention. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	if len(name) < len("_total") || name[len(name)-len("_total"):] != "_total" {
		panic(fmt.Sprintf("obs: counter %q must end in _total", name))
	}
	c := &Counter{name: name, help: help}
	r.register(name, help, c)
	return c
}

// Gauge registers and returns a gauge. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{name: name, help: help}
	r.register(name, help, g)
	return g
}

// GaugeFunc registers a gauge sampled from fn at exposition time.
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, &gaugeFunc{name: name, help: help, fn: fn})
}

// WriteText renders the registry in Prometheus text exposition format,
// metrics sorted by name.
func (r *Registry) WriteText(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := append([]string(nil), r.ordered...)
	ms := make([]metric, len(names))
	for i, n := range names {
		ms[i] = r.byName[n]
	}
	r.mu.Unlock()
	sort.Sort(&byName{names, ms})
	for _, m := range ms {
		m.expose(w)
	}
}

// Snapshot returns a point-in-time view of every scalar series:
// counters and gauges under their own name, histograms as _count and
// _sum. Experiments use it for world-level assertions.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make(map[string]metric, len(r.byName))
	for n, m := range r.byName {
		ms[n] = m
	}
	r.mu.Unlock()
	out := make(map[string]float64, len(ms))
	for n, m := range ms {
		switch v := m.(type) {
		case *Counter:
			out[n] = float64(v.Value())
		case *Gauge:
			out[n] = v.Value()
		case *gaugeFunc:
			out[n] = v.fn()
		case *QHist:
			out[n+"_count"] = float64(v.Count())
			out[n+"_sum"] = v.Sum()
		}
	}
	return out
}

type byName struct {
	names []string
	ms    []metric
}

func (s *byName) Len() int           { return len(s.names) }
func (s *byName) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s *byName) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.ms[i], s.ms[j] = s.ms[j], s.ms[i]
}

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// escapeHelp applies the text exposition format's HELP escaping: a
// raw newline would terminate the comment mid-text and leave the rest
// as an unparsable line, and a raw backslash would be read back as an
// escape by round-tripping parsers.
func escapeHelp(help string) string {
	if !strings.ContainsAny(help, "\\\n") {
		return help
	}
	var b strings.Builder
	b.Grow(len(help) + 8)
	for i := 0; i < len(help); i++ {
		switch help[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(help[i])
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
