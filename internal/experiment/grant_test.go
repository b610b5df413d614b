package experiment

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/core"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// TestGrantStatementRefusesTampering: an 8-domain grant is one
// statement, the destination's signature over the eight claims in order
// (DESIGN.md §6.11, "Why a grant is one signature"). The user's check
// accepts it as it came, and refuses, naming the destination, every
// grant altered on the way: a claim's granted flag flipped, wherever it
// sits; a claim's handle or domain changed; a claim dropped; two claims
// swapped; a claim from another RAR's grant spliced in; the signature
// stripped.
func TestGrantStatementRefusesTampering(t *testing.T) {
	w, u := chainUser(t, 8, WorldConfig{})
	grant := func() *signalling.ResultPayload {
		t.Helper()
		spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
		res, err := u.ReserveE2E(spec)
		if err != nil || !res.Granted {
			t.Fatalf("reserve: %v %+v", err, res)
		}
		return res
	}
	res, other := grant(), grant()
	if len(res.Approvals) != 8 {
		t.Fatalf("grant carries %d claims, want 8", len(res.Approvals))
	}
	if err := w.VerifyApprovals(res); err != nil {
		t.Fatalf("the unaltered grant: %v", err)
	}
	dest := w.DestDomain()
	tampered := func(name string, alter func(a []signalling.DomainApproval) []signalling.DomainApproval) {
		t.Helper()
		forged := *res
		forged.Approvals = alter(slices.Clone(res.Approvals))
		err := w.VerifyApprovals(&forged)
		if err == nil || !strings.Contains(err.Error(), dest) {
			t.Errorf("%s: VerifyApprovals = %v, want a refusal naming %s", name, err, dest)
		}
	}
	for i := range res.Approvals {
		tampered("granted flipped on claim "+res.Approvals[i].Domain, func(a []signalling.DomainApproval) []signalling.DomainApproval {
			a[i].Granted = false
			return a
		})
	}
	tampered("a handle changed", func(a []signalling.DomainApproval) []signalling.DomainApproval {
		a[3].Handle += "0"
		return a
	})
	tampered("a domain changed", func(a []signalling.DomainApproval) []signalling.DomainApproval {
		a[3].Domain = a[5].Domain
		return a
	})
	tampered("a claim dropped", func(a []signalling.DomainApproval) []signalling.DomainApproval {
		return slices.Delete(a, 4, 5)
	})
	tampered("two claims swapped", func(a []signalling.DomainApproval) []signalling.DomainApproval {
		a[2], a[5] = a[5], a[2]
		return a
	})
	tampered("a claim of another RAR's grant spliced in", func(a []signalling.DomainApproval) []signalling.DomainApproval {
		return slices.Insert(a, 4, other.Approvals[4])
	})
	tampered("a claim of another RAR's grant swapped in", func(a []signalling.DomainApproval) []signalling.DomainApproval {
		a[4] = other.Approvals[4]
		return a
	})
	tampered("the signature stripped", func(a []signalling.DomainApproval) []signalling.DomainApproval {
		a[0].Signature = nil
		return a
	})
}

// TestDestinationRefusesLayerWithoutClaim: the destination lists every
// broker layer's admission claim in the grant it signs, so a source
// broker that seals its layer onward without one — Extend with no
// additions — has its reserve refused by name, before admission.
func TestDestinationRefusesLayerWithoutClaim(t *testing.T) {
	w, u := chainUser(t, 2, WorldConfig{})
	spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: units.Mbps})
	rarU, err := u.buildRARFor(spec, "Domain0")
	if err != nil {
		t.Fatal(err)
	}
	bb0 := w.members["Domain0"][0].cfg
	proto, err := core.NewBroker(bb0.Key, bb0.Cert, bb0.Trust)
	if err != nil {
		t.Fatal(err)
	}
	verified, err := proto.Verify(rarU, u.Agent.Key.DN, u.Agent.Cert.DER, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	extended, err := proto.Extend(rarU, u.Agent.Cert.DER, verified, w.BBCerts["Domain1"], nil)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, extended)
	if err != nil {
		t.Fatal(err)
	}
	c, err := signalling.Dial(w.Net.NewEndpoint(bb0.Key.DN, bb0.Cert.DER), w.BBAddr("Domain1"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(msg, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := "Domain1: layer of " + string(bb0.Key.DN) + " carries no admission claim"
	if res := resp.Result; res == nil || res.Granted || res.Reason != want {
		t.Fatalf("destination answered %+v, want the refusal %q", res, want)
	}
	if got := w.BBs["Domain1"].Table().CommittedAt(spec.Window.Start); got != 0 {
		t.Errorf("destination committed %v for a refused request", got)
	}
}

// TestForwardingHopsRelayTheGrantAsAnswered: a forwarding hop passes
// the grant upstream as the bytes it was answered in (DESIGN.md §6.6,
// "Who owns a frame"). On a 4-domain path, the approvals of the answer
// each hop received from below and those of the answer the user
// received are the same bytes, and they verify as the destination's
// statement over four claims.
func TestForwardingHopsRelayTheGrantAsAnswered(t *testing.T) {
	var mu sync.Mutex
	answered := map[string][]byte{} // by domain: the approvals of the answer it received
	w, err := BuildWorld(WorldConfig{
		NumDomains: 4,
		WrapDialer: func(domain string, d transport.Dialer) transport.Dialer {
			return recordingDialer{Dialer: d, received: func(frame []byte) {
				if stack := approvalEntries(t, frame); stack != nil {
					mu.Lock()
					answered[domain] = stack
					mu.Unlock()
				}
			}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	u, err := w.NewUser("Alice", "Domain0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	rar, err := u.Agent.BuildRAR(u.NewSpec(SpecOptions{DestDomain: "Domain3", Bandwidth: units.Mbps}), w.BBCerts["Domain0"])
	if err != nil {
		t.Fatal(err)
	}
	msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, rar)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := w.Net.NewEndpoint(u.DN(), u.Agent.Cert.DER).Dial(w.BBAddr("Domain0"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(msg.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	frame, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	res, err := signalling.DecodeMessage(frame)
	if err != nil || res.Result == nil || !res.Result.Granted {
		t.Fatalf("reserve: %+v %v", res, err)
	}
	if err := w.VerifyApprovals(res.Result); err != nil {
		t.Fatal(err)
	}
	if err := res.Result.DecodeApprovals(); err != nil || len(res.Result.Approvals) != 4 {
		t.Fatalf("the user's grant decodes to %d approvals (err %v), want 4", len(res.Result.Approvals), err)
	}
	user := approvalEntries(t, frame)
	mu.Lock()
	defer mu.Unlock()
	for _, d := range []string{"Domain0", "Domain1", "Domain2"} {
		if !bytes.Equal(answered[d], user) {
			t.Errorf("%s was answered with the approvals\n % x\nthe user with\n % x", d, answered[d], user)
		}
	}
}

// approvalEntries returns the approval entries (field 4) of a result
// frame as they lie in it, joined in order: nil for any other frame,
// and for a result without approvals.
func approvalEntries(t *testing.T, frame []byte) []byte {
	if m, err := signalling.DecodeMessage(frame); err != nil || m.Result == nil {
		return nil
	}
	d := wire.Dec{Buf: frame[3:]}
	d.Uvarint() // the message id
	var out []byte
	for d.More() {
		at := d.Offset()
		f, wt := d.Tag()
		d.Skip(wt)
		if f == 4 && wt == wire.TBytes {
			out = append(out, frame[3+at:3+d.Offset()]...)
		}
	}
	if err := d.Err(); err != nil {
		t.Errorf("a result frame that decodes does not walk: %v", err)
	}
	return out
}
