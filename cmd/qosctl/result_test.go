package main

import (
	"strings"
	"testing"

	"e2eqos/internal/experiment"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// TestStatusOfAGrantedRARPrintsNoStatement: a status answer on a
// granted RAR carries the reservation's attributes and no approvals, so
// qosctl prints its handle and attributes and no statement line — it
// printed "signalling: grant carries no statement" when it read every
// granted answer as a grant. The reserve's own answer still lists its
// statement and claims.
func TestStatusOfAGrantedRARPrintsNoStatement(t *testing.T) {
	w, err := experiment.BuildWorld(experiment.WorldConfig{NumDomains: 2, Capacity: 100 * units.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 2 * units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("reserve: %v %+v", err, res)
	}
	var reserved strings.Builder
	if granted, err := writeResult(&reserved, spec.RARID, res); !granted || err != nil {
		t.Fatalf("reserve answer: granted %v, err %v", granted, err)
	}
	if !strings.Contains(reserved.String(), "granted: statement by "+w.DestDomain()+" over 2 claims") {
		t.Errorf("reserve answer lists no statement:\n%s", reserved.String())
	}

	status := w.BBs[w.SourceDomain()].Handle(signalling.Peer{DN: u.DN(), CertDER: u.Agent.Cert.DER}, &signalling.Message{
		Type:   signalling.MsgStatus,
		Status: &signalling.StatusPayload{RARID: spec.RARID},
	})
	var out strings.Builder
	granted, err := writeResult(&out, spec.RARID, status.Result)
	if !granted || err != nil {
		t.Fatalf("status answer: granted %v, err %v", granted, err)
	}
	got := out.String()
	if strings.Contains(got, "statement") {
		t.Errorf("status of a granted RAR prints a statement line:\n%s", got)
	}
	for _, want := range []string{"GRANTED " + spec.RARID + " handle=", "  info: status=granted"} {
		if !strings.Contains(got, want) {
			t.Errorf("status output lacks %q:\n%s", want, got)
		}
	}
}
