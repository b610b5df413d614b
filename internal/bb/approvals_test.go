package bb_test

import (
	"bytes"
	"reflect"
	"testing"

	"e2eqos/internal/experiment"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// TestDenialCarriesOnlyRefusals: a denial comes back up the chain with
// one approval per domain, and every one of them, the forwarding hops'
// own included, is a refusal under its hop's valid signature. No hop
// puts a grant claim on a denial: a forwarding hop signs nothing of a
// grant, and only the end of the line signs one.
func TestDenialCarriesOnlyRefusals(t *testing.T) {
	w, u := testWorld(t, 4)
	fill := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 100 * units.Mbps})
	if res, err := u.ReserveLocalAt(w.DestDomain(), fill); err != nil || !res.Granted {
		t.Fatalf("setup: %v %+v", err, res)
	}
	for i := 0; i < 25; i++ {
		spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
		spec.Window = fill.Window
		res, err := u.ReserveE2E(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Granted {
			t.Fatal("grant into exhausted destination")
		}
		if len(res.Approvals) != len(w.Domains) {
			t.Fatalf("denial carries %d approvals, want one per domain (%d)", len(res.Approvals), len(w.Domains))
		}
		for _, a := range res.Approvals {
			if a.Granted {
				t.Fatalf("%s put a grant approval on a denial: %+v", a.Domain, a)
			}
		}
		if err := w.VerifyApprovals(res); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetransmittedReserveReplaysIdenticalApprovals: the grant — one
// statement, signed by the destination over every domain's claim — is
// recorded with the outcome at every hop, so a retransmission gets the
// very same statement back, byte for byte, not a second signature over
// the same facts.
func TestRetransmittedReserveReplaysIdenticalApprovals(t *testing.T) {
	w, u := testWorld(t, 4)
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	first, err := u.ReserveE2E(spec)
	if err != nil || !first.Granted {
		t.Fatalf("reserve: %v %+v", err, first)
	}
	if len(first.Approvals) != len(w.Domains) {
		t.Fatalf("grant carries %d approvals, want %d", len(first.Approvals), len(w.Domains))
	}
	for _, a := range first.Approvals {
		if !a.Granted || a.Handle == "" {
			t.Fatalf("grant claim from %s: %+v", a.Domain, a)
		}
	}
	stmts, err := signalling.Statements(first.Approvals)
	if err != nil || len(stmts) != 1 || stmts[0][0].Domain != w.DestDomain() {
		t.Fatalf("grant statements %+v (%v), want one by %s", stmts, err, w.DestDomain())
	}
	if err := w.VerifyApprovals(first); err != nil {
		t.Fatal(err)
	}
	again, err := u.ReserveE2E(spec)
	if err != nil || !again.Granted {
		t.Fatalf("retransmission: %v %+v", err, again)
	}
	if !bytes.Equal(again.Approvals[0].Signature, first.Approvals[0].Signature) {
		t.Fatalf("replayed statement signature differs:\n first % x\n again % x", first.Approvals[0].Signature, again.Approvals[0].Signature)
	}
	if !reflect.DeepEqual(first.Approvals, again.Approvals) {
		t.Fatalf("replayed approvals differ:\n first: %+v\n again: %+v", first.Approvals, again.Approvals)
	}
}
