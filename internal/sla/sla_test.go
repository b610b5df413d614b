package sla

import (
	"testing"

	"e2eqos/internal/units"
)

func TestSLAConforms(t *testing.T) {
	s := &SLA{Upstream: "A", Downstream: "B", Service: SLS{Profile: TrafficProfile{Rate: 100 * units.Mbps, BucketBytes: 64_000}}}
	if err := s.Conforms(0, 100*units.Mbps); err != nil {
		t.Errorf("exact fit rejected: %v", err)
	}
	if err := s.Conforms(90*units.Mbps, 10*units.Mbps); err != nil {
		t.Errorf("fill to capacity rejected: %v", err)
	}
	if err := s.Conforms(90*units.Mbps, 11*units.Mbps); err == nil {
		t.Error("over-commitment accepted")
	}
	if err := s.Conforms(0, 0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	var nilSLA *SLA
	if err := nilSLA.Conforms(0, 1); err == nil {
		t.Error("nil SLA accepted request")
	}
}
