package experiment

import (
	"fmt"
	"testing"

	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// TestWireFullBattery runs the signalling battery in one world, over
// the one encoding there is: an end-to-end reserve must be granted with
// verifiable approvals from every domain, a tunnel establishment plus
// batched sub-flow allocation must succeed over the wire, and cancels
// must propagate — the full protocol, not just the happy path.
func TestWireFullBattery(t *testing.T) {
	w, err := BuildWorld(WorldConfig{
		NumDomains: 3,
		Capacity:   100 * units.Mbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	alice, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()

	// End-to-end reserve across all three domains.
	spec := alice.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	res, err := alice.ReserveE2E(spec)
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if !res.Granted {
		t.Fatalf("reserve denied: %s", res.Reason)
	}
	if len(res.Approvals) != 3 {
		t.Fatalf("got %d approvals, want one per domain (3)", len(res.Approvals))
	}
	if err := w.VerifyApprovals(res); err != nil {
		t.Fatalf("approval signatures did not survive the wire: %v", err)
	}

	// Tunnel establishment plus a batched sub-flow allocation, both as
	// wire calls into the source broker.
	tun := alice.NewSpec(SpecOptions{
		DestDomain: w.DestDomain(),
		Bandwidth:  40 * units.Mbps,
		Tunnel:     true,
	})
	tres, err := alice.ReserveE2E(tun)
	if err != nil || !tres.Granted {
		t.Fatalf("tunnel establishment: %v %+v", err, tres)
	}
	batch, err := tunnelBatch(alice, w.SourceDomain(), &signalling.TunnelBatchPayload{
		TunnelRARID: tun.RARID,
		Seq:         1,
		User:        alice.DN(),
		Ops: []signalling.TunnelOp{
			{Action: signalling.OpAlloc, SubFlowID: "jw-1", Bandwidth: int64(5 * units.Mbps)},
			{Action: signalling.OpAlloc, SubFlowID: "jw-2", Bandwidth: int64(5 * units.Mbps)},
		},
	})
	if err != nil {
		t.Fatalf("tunnel batch: %v", err)
	}
	if !batch.Granted {
		t.Fatalf("tunnel batch denied: %s", batch.Reason)
	}
	for _, r := range batch.BatchResults {
		if !r.Granted {
			t.Fatalf("sub-flow %s denied: %s", r.SubFlowID, r.Reason)
		}
	}

	// Cancels propagate along the recorded path.
	if err := alice.Cancel(w.SourceDomain(), spec.RARID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if err := alice.Cancel(w.SourceDomain(), tun.RARID); err != nil {
		t.Fatalf("tunnel cancel: %v", err)
	}
}

// tunnelBatch sends a batched sub-flow request straight to one end
// domain's broker as u, the way a tunnel's users reach its two ends.
func tunnelBatch(u *User, domain string, payload *signalling.TunnelBatchPayload) (*signalling.ResultPayload, error) {
	resp, err := u.call(domain, &signalling.Message{Type: signalling.MsgTunnelBatch, TunnelBatch: payload})
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("experiment: broker sent no result")
	}
	return resp.Result, nil
}
