package sla

import (
	"testing"
	"time"

	"e2eqos/internal/units"
)

func validProfile() TrafficProfile {
	return TrafficProfile{Rate: 100 * units.Mbps, BucketBytes: 64_000, PeakRate: 200 * units.Mbps}
}

func validSLA(up, down string) *SLA {
	return &SLA{
		Upstream:   up,
		Downstream: down,
		Service: SLS{
			Profile:     validProfile(),
			Excess:      Remark,
			MaxLatency:  5 * time.Millisecond,
			Reliability: 0.999,
		},
	}
}

func TestTrafficProfileValid(t *testing.T) {
	if !validProfile().Valid() {
		t.Fatal("valid profile rejected")
	}
	bad := []TrafficProfile{
		{Rate: 0, BucketBytes: 1},
		{Rate: 1, BucketBytes: 0},
		{Rate: -5, BucketBytes: 10},
		{Rate: 100, BucketBytes: 10, PeakRate: 50}, // peak below rate
	}
	for i, p := range bad {
		if p.Valid() {
			t.Errorf("bad profile %d accepted: %+v", i, p)
		}
	}
	// Zero peak is unconstrained, hence valid.
	if !(TrafficProfile{Rate: 1, BucketBytes: 1}).Valid() {
		t.Error("zero peak must be valid")
	}
}

func TestSLSValid(t *testing.T) {
	s := SLS{Profile: validProfile(), Reliability: 0.99, MaxLatency: time.Millisecond}
	if !s.Valid() {
		t.Fatal("valid SLS rejected")
	}
	s.Reliability = 1.5
	if s.Valid() {
		t.Error("reliability > 1 accepted")
	}
	s.Reliability = -0.1
	if s.Valid() {
		t.Error("negative reliability accepted")
	}
	s = SLS{Profile: validProfile(), MaxLatency: -time.Millisecond}
	if s.Valid() {
		t.Error("negative latency accepted")
	}
}

func TestSLAValid(t *testing.T) {
	now := time.Now()
	s := validSLA("A", "B")
	if !s.Valid(now) {
		t.Fatal("valid SLA rejected")
	}
	if (&SLA{}).Valid(now) {
		t.Error("zero SLA accepted")
	}
	self := validSLA("A", "A")
	if self.Valid(now) {
		t.Error("self-peering accepted")
	}
	expired := validSLA("A", "B")
	expired.ValidUntil = now.Add(-time.Hour)
	if expired.Valid(now) {
		t.Error("expired SLA accepted")
	}
	future := validSLA("A", "B")
	future.ValidFrom = now.Add(time.Hour)
	if future.Valid(now) {
		t.Error("not-yet-valid SLA accepted")
	}
	var nilSLA *SLA
	if nilSLA.Valid(now) {
		t.Error("nil SLA accepted")
	}
}

func TestSLAConforms(t *testing.T) {
	s := validSLA("A", "B") // 100 Mb/s contracted
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

func TestExcessTreatmentString(t *testing.T) {
	if Drop.String() != "drop" || Remark.String() != "remark" || Shape.String() != "shape" {
		t.Error("treatment strings wrong")
	}
	if ExcessTreatment(99).String() == "" {
		t.Error("unknown treatment renders empty")
	}
}
