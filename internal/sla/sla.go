// Package sla models the service level agreements that regulate
// traffic between peered administrative domains and the service level
// specifications (SLS) that express their QoS parameters. In the
// paper's architecture, "a specific contract between peered domains
// comes into place, used by BBs as input for their admission control
// procedures", and "end-to-end guarantees can then be built by a chain
// of SLSs".
package sla

import (
	"fmt"

	"e2eqos/internal/units"
)

// TrafficProfile is a token-bucket traffic specification: the classic
// (r, b) pair, matching what DiffServ edge policers implement.
type TrafficProfile struct {
	// Rate is the sustained token rate.
	Rate units.Bandwidth
	// BucketBytes is the burst allowance in bytes.
	BucketBytes int64
}

// SLS is a service level specification: the measurable QoS parameters
// an SLA demands for one service class.
type SLS struct {
	// Profile is the admitted aggregate traffic envelope.
	Profile TrafficProfile
}

// SLA is the bilateral contract between two peered domains. It also
// carries the trust-establishment material the paper adds: "we extend
// this agreement by adding information to facilitate the trust
// relationship between two peered BBs. This information includes the
// certificates of the peered BBs as well as the certificate of the
// issuing certificate authority." Here the peered broker's certificate
// is what bb.Peering carries, and the broker pins it when it builds the
// SLA; the issuing CA is the trust store's business.
type SLA struct {
	// Upstream and Downstream name the peered domains; traffic covered
	// by this SLA flows Upstream -> Downstream.
	Upstream   string
	Downstream string
	// Service is the premium-class SLS for the aggregate.
	Service SLS
}

// Conforms checks whether an additional reservation of rate bw on top
// of committed aggregate usage fits the SLA's contracted profile.
func (s *SLA) Conforms(committed, bw units.Bandwidth) error {
	if s == nil {
		return fmt.Errorf("sla: no SLA in place")
	}
	if bw <= 0 {
		return fmt.Errorf("sla: non-positive bandwidth %v", bw)
	}
	if committed+bw > s.Service.Profile.Rate {
		return fmt.Errorf("sla: aggregate %v + request %v exceeds contracted rate %v (%s -> %s)",
			committed, bw, s.Service.Profile.Rate, s.Upstream, s.Downstream)
	}
	return nil
}
