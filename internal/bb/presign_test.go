package bb_test

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/units"
)

// TestPresignedApprovalDroppedOnDenial: a forwarding hop signs its
// grant approval while the downstream call is in flight. When
// downstream denies, that approval must not surface — every approval
// on the denial, the forwarding hops' own included, is a refusal under
// a valid signature — and the signing goroutines are gone once the
// answers are in.
func TestPresignedApprovalDroppedOnDenial(t *testing.T) {
	w, u := testWorld(t, 4)
	fill := u.NewSpec(experiment.SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 100 * units.Mbps})
	if res, err := u.ReserveLocalAt(w.DestDomain(), fill); err != nil || !res.Granted {
		t.Fatalf("setup: %v %+v", err, res)
	}
	deniedReserve := func() {
		t.Helper()
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
	for i := 0; i < 25; i++ {
		deniedReserve()
	}
	// The process's goroutine count is no measure here: connections keep
	// a few request workers parked. Look for the signers themselves.
	signing := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "presignGrant")
	}
	deadline := time.Now().Add(5 * time.Second)
	for signing() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d signing goroutines still alive after 25 denied reserves were answered", signing())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetransmittedReserveReplaysIdenticalApprovals: the approvals of a
// grant — each forwarding hop's signed beside its downstream call — are
// recorded with the outcome, so a retransmission gets the very same
// bytes back, not a second signature over the same facts.
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
			t.Fatalf("grant approval from %s: %+v", a.Domain, a)
		}
	}
	if err := w.VerifyApprovals(first); err != nil {
		t.Fatal(err)
	}
	again, err := u.ReserveE2E(spec)
	if err != nil || !again.Granted {
		t.Fatalf("retransmission: %v %+v", err, again)
	}
	if !reflect.DeepEqual(first.Approvals, again.Approvals) {
		t.Fatalf("replayed approvals differ:\n first: %+v\n again: %+v", first.Approvals, again.Approvals)
	}
}
