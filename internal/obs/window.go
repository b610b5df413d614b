package obs

import (
	"sort"
	"time"
)

// TopSnapshot is one broker's registry at one instant: the level of
// every scalar series and the quantile summaries. The bbd admin
// endpoint serves it as JSON at /top. It carries levels, not rates:
// `qosctl top` keeps each broker's previous snapshot and divides a
// counter's growth by the time between the two, so the broker keeps
// no telemetry state between requests.
type TopSnapshot struct {
	Domain    string                      `json:"domain"`
	TimeNS    int64                       `json:"ts_ns"`
	Values    map[string]float64          `json:"values"` // Registry.Snapshot
	Quantiles map[string]QuantileSnapshot `json:"quantiles"`
}

// NewTopSnapshot reads reg now.
func NewTopSnapshot(domain string, reg *Registry) TopSnapshot {
	return TopSnapshot{Domain: domain, TimeNS: time.Now().UnixNano(), Values: reg.Snapshot(), Quantiles: reg.Quantiles()}
}

// SortedKeys returns m's keys sorted — rendering helper shared by
// qosctl top and tests.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
