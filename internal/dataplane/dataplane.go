// Package dataplane defines the contract between the bandwidth broker
// (the per-domain control plane) and whatever enforces its decisions
// in the forwarding path. The paper's architecture needs exactly two
// per-domain enforcement hooks: per-flow token-bucket marking at the
// first-hop edge device, and per-aggregate policing at the domain
// ingress ("Domain C polices traffic based on traffic aggregates, not
// on individual users"). Everything the broker does to the network
// goes through this interface; the broker itself never touches a
// concrete simulator or device driver.
//
// Backends live in sub-packages, one package per backend:
//
//   - netsimdp wraps the packet-level netsim simulator (what every
//     experiment world's broker is wired against);
//   - fake is a thread-safe counting backend with closed-form
//     token-bucket math, for tests and the large-scale scenario fleet.
//
// A broker with no data plane (Config.Plane nil) runs control-plane
// only.
//
// All implementations must be safe for concurrent use: broker
// goroutines install and remove profiles while traffic (real or
// modelled) is being marked and policed.
package dataplane

import (
	"time"

	"e2eqos/internal/sla"
)

// FlowStats is the per-flow outcome of edge marking.
type FlowStats struct {
	// Installed reports whether the flow currently has a profile.
	Installed bool
	// Profile is the installed token-bucket profile.
	Profile sla.TrafficProfile
	// PremiumBytes counts bytes that left the edge marked premium.
	PremiumBytes int64
	// DemotedBytes counts bytes demoted to best effort for exceeding
	// the profile.
	DemotedBytes int64
}

// ClassStats is the per-class byte accounting at the domain's
// aggregate policer.
type ClassStats struct {
	// PremiumBytes counts premium bytes that conformed to the
	// aggregate profile and passed the policer.
	PremiumBytes int64
	// BestEffortBytes counts best-effort bytes forwarded, including
	// premium excess remarked down.
	BestEffortBytes int64
	// ExcessPremiumBytes counts premium bytes offered beyond the
	// aggregate profile, whatever their excess treatment.
	ExcessPremiumBytes int64
}

// DataPlane is the broker-facing enforcement interface. Flow names
// are opaque to the data plane; the broker uses RAR identifiers.
//
// Mark and Police are the decision entry points: they meter offered
// bytes at a given virtual time against the same state the packet
// path (if any) uses, and return how many bytes survive. Virtual time
// must be monotone per plane; meters refill from the deltas.
type DataPlane interface {
	// Name identifies the backend (for reports and logs).
	Name() string

	// InstallProfile gives flow a premium token-bucket profile — what
	// the broker does to the edge device when a reservation is
	// granted. Re-installing replaces the profile and resets its meter.
	InstallProfile(flow string, p sla.TrafficProfile)

	// RemoveProfile tears the flow's profile down. Removing an
	// unknown flow is a no-op.
	RemoveProfile(flow string)

	// SetAggregate reconfigures the domain's admitted aggregate — what
	// the broker does to the ingress policer as reservations come and
	// go.
	SetAggregate(p sla.TrafficProfile)

	// Aggregate returns the currently configured aggregate profile.
	Aggregate() sla.TrafficProfile

	// Mark meters bytes of flow traffic offered at virtual time now
	// against the flow's profile and returns how many bytes leave the
	// edge marked premium; the rest ride best effort. Flows without an
	// installed profile mark nothing premium.
	Mark(flow string, bytes int64, now time.Duration) int64

	// Police meters premium bytes arriving at the domain ingress at
	// virtual time now against the aggregate profile and returns how
	// many bytes pass.
	Police(premium int64, now time.Duration) int64

	// FlowStats returns the flow's marking counters; ok is false if
	// the flow has no installed profile.
	FlowStats(flow string) (FlowStats, bool)

	// ClassStats returns the aggregate policer's byte accounting.
	ClassStats() ClassStats
}
