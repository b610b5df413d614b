package sla

import (
	"testing"
	"time"

	"e2eqos/internal/units"
)

func validProfile() TrafficProfile {
	return TrafficProfile{Rate: 100 * units.Mbps, BucketBytes: 64_000}
}

func validSLA(up, down string) *SLA {
	return &SLA{
		Upstream:   up,
		Downstream: down,
		Service: SLS{
			Profile:     validProfile(),
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
	}
	for i, p := range bad {
		if p.Valid() {
			t.Errorf("bad profile %d accepted: %+v", i, p)
		}
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
	s := validSLA("A", "B")
	if !s.Valid() {
		t.Fatal("valid SLA rejected")
	}
	if (&SLA{}).Valid() {
		t.Error("zero SLA accepted")
	}
	self := validSLA("A", "A")
	if self.Valid() {
		t.Error("self-peering accepted")
	}
	noService := validSLA("A", "B")
	noService.Service.Profile.Rate = 0
	if noService.Valid() {
		t.Error("SLA without a contracted rate accepted")
	}
	var nilSLA *SLA
	if nilSLA.Valid() {
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
