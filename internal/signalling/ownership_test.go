package signalling_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"e2eqos/internal/experiment"
	"e2eqos/internal/resv"
	"e2eqos/internal/signalling"
	"e2eqos/internal/units"
)

// TestNoAnswerOutlivesItsOwner drives a 4-domain chain with every
// answer a broker gives back (signalling.Release) and every reply slot a
// server has sent overwritten with 0xA5 the moment it is: a grant, its
// retransmission, status, a tunnel and a batch through it, and the
// cancels. A forwarding hop adopts the stack, spans and policy
// attributes of the answer it was given and then gives the answer back;
// had it kept the answer, or given it back before it had built its own
// outcome, a poisoned stack would travel upstream. So the grant must
// verify, every broker's recorded outcome must hold the grant's stack
// byte for byte (its state digest contains it), a retransmission must be
// answered with that stack, and no broker's digest may move while later
// exchanges poison their answers.
func TestNoAnswerOutlivesItsOwner(t *testing.T) {
	signalling.PoisonAnswers(true)
	t.Cleanup(func() { signalling.PoisonAnswers(false) })
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  4,
		Capacity:    1000 * units.Mbps,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	src, dest := w.SourceDomain(), w.DestDomain()
	c, err := signalling.Dial(w.Net.NewEndpoint(u.DN(), u.Agent.Cert.DER), w.BBAddr(src))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	call := func(msg *signalling.Message) *signalling.ResultPayload {
		t.Helper()
		resp, err := c.Call(msg, 5*time.Second)
		if err != nil || resp.Result == nil {
			t.Fatalf("%s: resp=%+v err=%v", msg.Type, resp, err)
		}
		return resp.Result // kept: the test reads it to the end
	}
	digests := func() map[string][]byte {
		t.Helper()
		out := make(map[string][]byte, len(w.Domains))
		for _, d := range w.Domains {
			digest, err := w.BBs[d].StateDigest()
			if err != nil {
				t.Fatalf("%s: digest: %v", d, err)
			}
			out[d] = digest
		}
		return out
	}
	// rar is spec's RAR as the user sends it; its answer, read with call,
	// keeps its Stack as every hop passed it on.
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: dest, Bandwidth: 10 * units.Mbps})
	rar := func() *signalling.Message {
		t.Helper()
		env, err := u.Agent.BuildRAR(spec, w.BBCerts[src])
		if err != nil {
			t.Fatal(err)
		}
		msg, err := signalling.NewReserveMessage(signalling.ModeEndToEnd, env)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	granted := call(rar())
	if !granted.Granted || granted.Stack == "" {
		t.Fatalf("reserve: %+v", granted)
	}
	if err := w.VerifyApprovals(granted); err != nil {
		t.Fatalf("the grant does not verify: %v", err)
	}
	approvals, err := granted.DecodedApprovals()
	if err != nil || len(approvals) != len(w.Domains) {
		t.Fatalf("the grant carries %d approvals (err %v), want %d", len(approvals), err, len(w.Domains))
	}
	settled := digests()
	for _, d := range w.Domains {
		if !bytes.Contains(settled[d], []byte(granted.Stack)) {
			t.Errorf("%s recorded an outcome without the grant's stack", d)
		}
	}

	// The retransmission is answered from the source's recorded outcome,
	// status from the source's route entry; both answers are poisoned
	// once read, as are the replies the brokers sent, and nothing a
	// broker keeps may change.
	for i := 0; i < 3; i++ {
		again := call(rar())
		if !again.Granted || again.Stack != granted.Stack || again.Handle != granted.Handle {
			t.Fatalf("retransmission %d answered\n %+v\nnot the grant\n %+v", i, again, granted)
		}
		st := call(&signalling.Message{Type: signalling.MsgStatus, Status: &signalling.StatusPayload{RARID: spec.RARID}})
		if !st.Granted || st.Handle != granted.Handle || st.PolicyInfo["status"] == "" {
			t.Fatalf("status %d: %+v", i, st)
		}
	}
	if after := digests(); !reflect.DeepEqual(after, settled) {
		t.Fatal("a broker's state changed while the retransmissions and status calls poisoned their answers")
	}

	// A tunnel and a batch granted whole: the source reads the
	// destination's answer in its reconcile pass, then gives it back.
	tunnel := u.NewSpec(experiment.SpecOptions{DestDomain: dest, Bandwidth: 100 * units.Mbps, Tunnel: true})
	if res, err := u.ReserveE2E(tunnel); err != nil || !res.Granted {
		t.Fatalf("tunnel reserve: res=%+v err=%v", res, err)
	}
	ops := []signalling.TunnelOp{
		{Action: signalling.OpAlloc, SubFlowID: "f1", Bandwidth: int64(5 * units.Mbps)},
		{Action: signalling.OpAlloc, SubFlowID: "f2", Bandwidth: int64(5 * units.Mbps)},
	}
	for _, batch := range [][]signalling.TunnelOp{ops, {{Action: signalling.OpRelease, SubFlowID: "f1"}}} {
		if results, err := w.BBs[src].TunnelBatch(tunnel.RARID, batch, u.DN()); err != nil || results != nil {
			t.Fatalf("tunnel batch: results=%+v err=%v", results, err)
		}
	}
	for _, d := range []string{src, dest} {
		if ep, ok := w.BBs[d].Tunnel(tunnel.RARID); !ok || ep.Len() != 1 {
			t.Fatalf("%s: the tunnel endpoint does not hold the one sub-flow left", d)
		}
	}

	// Cancels travel the recorded legs, every hop's answer poisoned once
	// read, and leave nothing behind.
	for _, id := range []string{spec.RARID, tunnel.RARID} {
		if err := u.Cancel(src, id); err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
		if st := call(&signalling.Message{Type: signalling.MsgStatus, Status: &signalling.StatusPayload{RARID: id}}); st.Granted {
			t.Fatalf("status after the cancel of %s: %+v", id, st)
		}
	}
	for _, d := range w.Domains {
		for _, r := range w.BBs[d].Table().All() {
			if r.Status == resv.Granted {
				t.Errorf("%s: reservation %s survives the cancels", d, r.Handle)
			}
		}
	}
	if n := signalling.PoisonAnswers(false); n < 30 {
		t.Fatalf("only %d answers and reply slots were poisoned: the brokers give back none they read", n)
	}
}
