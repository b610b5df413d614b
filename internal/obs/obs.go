// Package obs is the observability layer of the control plane:
// structured logging (log/slog), a Prometheus-text metrics registry,
// and hop-by-hop trace spans for the inter-BB signalling chain.
//
// The package is designed so that "disabled" costs nothing on the hot
// path: every metric handle (Counter, Gauge, QHist) is no-op safe
// on a nil receiver, a nil *Registry hands out nil handles, and NopLogger
// returns a *slog.Logger whose handler discards everything before
// attribute formatting. Callers therefore thread the same code path
// whether observability is on or off.
//
// Metric naming follows Prometheus conventions and is enforced at
// registration time: names must be lowercase_snake
// ([a-z][a-z0-9_]*), counters must end in _total, and registering the
// same name twice panics. The `make metrics-lint` tier and the tests
// in lint_test.go turn those panics into CI failures.
//
// Cardinality rule: metrics are unlabeled aggregates. Anything
// per-RAR, per-user or per-trace belongs in trace spans or log
// records, never in a metric name or label.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Standard attribute keys used across the control plane, so log
// records stay greppable and machine-parseable.
const (
	// AttrDomain is the administrative domain of the emitting broker.
	AttrDomain = "domain"
	// AttrPeer is the authenticated DN of the remote party.
	AttrPeer = "peer"
	// AttrRAR is the resource-allocation-request id.
	AttrRAR = "rar"
	// AttrTrace is the end-to-end trace id.
	AttrTrace = "trace"
)

// nopHandler discards records before any attribute formatting.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }

// NopLogger returns a logger that drops everything. It is the default
// wherever no logger is configured, so call sites never nil-check.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

// ParseLevel maps a config string to a slog level. Empty means Info.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger builds a logger writing to w in the given format ("text"
// or "json"; empty means text) at the given level.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
}

// BrokerLogger derives a per-broker logger carrying the domain as a
// standard attribute on every record.
func BrokerLogger(base *slog.Logger, domain string) *slog.Logger {
	if base == nil {
		return NopLogger()
	}
	return base.With(AttrDomain, domain)
}
