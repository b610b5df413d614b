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
//   - fake meters offered bytes in closed form, for the large-scale
//     scenario fleet, which holds its planes directly.
//
// A broker with no data plane (Config.Plane nil) runs control-plane
// only.
//
// All implementations must be safe for concurrent use: broker
// goroutines install and remove profiles while traffic (real or
// modelled) is being marked and policed.
package dataplane

import "e2eqos/internal/sla"

// DataPlane is the broker-facing enforcement interface: the three
// calls a broker makes. Flow names are opaque to the data plane; the
// broker uses RAR identifiers.
type DataPlane interface {
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
}
