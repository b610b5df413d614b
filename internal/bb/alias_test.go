package bb_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/bb"
	"e2eqos/internal/experiment"
	"e2eqos/internal/signalling"
	"e2eqos/internal/transport"
	"e2eqos/internal/units"
)

// The brokers decode frames in place (DESIGN.md §6.6, "Who owns a
// frame"): what they decode out of a frame is theirs only until the
// exchange the frame belongs to is over. poisoner makes "over" violent.
// Every connection it wraps overwrites a request frame with 0xA5 the
// moment the response to it has been sent, and a response frame the
// moment its reader comes back for the next frame: a decoded result owns
// everything of it, the approval stack a broker adopts included. The
// last response frame of each connection is overwritten when the test,
// between two steps, declares every exchange settled. Whatever a broker
// then still holds of a frame — an alias in its durable state, a
// goroutine still reading — shows up as a changed digest, a broken
// replay or approval stack, or a race report.
type poisoner struct {
	mu        sync.Mutex
	responses map[*poisonConn][]byte // the last response each connection delivered, not yet overwritten
	poisoned  int                    // frames overwritten
	payloads  int                    // served request payloads overwritten (poisonHandler)
}

func (p *poisoner) poison(frame []byte) {
	for i := range frame {
		frame[i] = 0xA5
	}
	p.mu.Lock()
	p.poisoned++
	p.mu.Unlock()
}

// settle overwrites every response frame delivered so far.
func (p *poisoner) settle() {
	p.mu.Lock()
	frames := p.responses
	p.responses = make(map[*poisonConn][]byte)
	p.mu.Unlock()
	for _, f := range frames {
		p.poison(f)
	}
}

// hand records frame as the response c delivered last, and overwrites
// the one before it, whose reader is done with it; a nil frame just
// overwrites.
func (p *poisoner) hand(c *poisonConn, frame []byte) {
	p.mu.Lock()
	last := p.responses[c]
	if frame != nil {
		p.responses[c] = frame
	} else {
		delete(p.responses, c)
	}
	p.mu.Unlock()
	if last != nil {
		p.poison(last)
	}
}

type poisonConn struct {
	transport.Conn
	p *poisoner

	mu       sync.Mutex
	requests map[uint64][]byte // delivered and not yet answered, by message ID
}

// frameID reads the header of a signalling frame: whether it is a
// result, and the ID that pairs it with its request.
func frameID(frame []byte) (id uint64, result, ok bool) {
	if len(frame) < 4 || frame[0] != signalling.BinMagic {
		return 0, false, false
	}
	id, n := binary.Uvarint(frame[3:])
	return id, frame[2] == 7, n > 0
}

func (c *poisonConn) Recv() ([]byte, error) {
	// The reader is back: it is done with the response it was handed.
	c.p.hand(c, nil)
	frame, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	switch id, result, ok := frameID(frame); {
	case !ok:
	case result:
		c.p.hand(c, frame)
	default:
		c.mu.Lock()
		c.requests[id] = frame
		c.mu.Unlock()
	}
	return frame, nil
}

func (c *poisonConn) Send(msg []byte) error {
	err := c.Conn.Send(msg)
	if id, result, ok := frameID(msg); ok && result {
		c.mu.Lock()
		request := c.requests[id]
		delete(c.requests, id)
		c.mu.Unlock()
		c.p.poison(request)
	}
	return err
}

func (p *poisoner) wrap(c transport.Conn, err error) (transport.Conn, error) {
	if err != nil {
		return nil, err
	}
	return &poisonConn{Conn: c, p: p, requests: make(map[uint64][]byte)}, nil
}

type poisonDialer struct {
	transport.Dialer
	p *poisoner
}

func (d poisonDialer) Dial(addr string) (transport.Conn, error) { return d.p.wrap(d.Dialer.Dial(addr)) }

type poisonListener struct {
	transport.Listener
	p *poisoner
}

func (l poisonListener) Accept() (transport.Conn, error) { return l.p.wrap(l.Listener.Accept()) }

// front replaces the world's own frontend of a domain with one whose
// accepted connections poison: the same broker, served at the same
// address under the same identity.
func (p *poisoner) front(t *testing.T, w *experiment.World, domain string) *signalling.Server {
	t.Helper()
	if err := w.StopDomain(domain); err != nil {
		t.Fatal(err)
	}
	cert := w.BBCerts[domain]
	ep := w.Net.NewEndpoint(cert.SubjectDN(), cert.DER)
	// A frontend stopped before its goroutine got to Serve releases the
	// address only once it does.
	ln, err := ep.Listen(w.BBAddr(domain))
	for deadline := time.Now().Add(2 * time.Second); err != nil && time.Now().Before(deadline); ln, err = ep.Listen(w.BBAddr(domain)) {
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	srv := signalling.NewServer(poisonHandler{t: t, b: w.BBs[domain], p: p}, w.BBs[domain].Logger())
	go srv.Serve(poisonListener{ln, p})
	t.Cleanup(srv.Shutdown)
	return srv
}

// poisonHandler serves a broker and overwrites the request payload it
// served once the broker has answered it: every string, the envelope's
// bytes, every PathPin entry and every TunnelOp of the Ops array, to
// its capacity. The server decodes a later request into the same
// message, payload and arrays (signalling.Handler), so whatever the
// broker kept of them would change under it: its StateDigest must read
// the same before and after the overwrite, and the next request must
// decode as if nothing had been there.
type poisonHandler struct {
	t *testing.T
	b *bb.BB
	p *poisoner
}

const poisonText = "\xa5\xa5 overwritten"

func (h poisonHandler) Handle(peer signalling.Peer, msg *signalling.Message) *signalling.Message {
	resp := h.b.Handle(peer, msg)
	before, err := h.b.StateDigest()
	if err != nil {
		h.t.Errorf("digest: %v", err)
		return resp
	}
	switch {
	case msg.Reserve != nil:
		r := msg.Reserve
		r.Mode, r.TraceID = poisonText, poisonText
		for i := range r.EnvelopeData {
			r.EnvelopeData[i] = 0xA5
		}
		pins := r.PathPin[:cap(r.PathPin)]
		for i := range pins {
			pins[i] = poisonText
		}
		r.Attempt, r.SplitPart, r.SplitOf, r.SplitBW = -1, -1, -1, -1
	case msg.Cancel != nil:
		msg.Cancel.RARID = poisonText
	case msg.Status != nil:
		msg.Status.RARID = poisonText
	case msg.TunnelBatch != nil:
		b := msg.TunnelBatch
		b.TunnelRARID, b.User, b.TraceID = poisonText, poisonText, poisonText
		b.Seq, b.Acked = -1, -1
		ops := b.Ops[:cap(b.Ops)]
		for i := range ops {
			ops[i] = signalling.TunnelOp{Action: poisonText, SubFlowID: poisonText, Bandwidth: -1}
		}
	default:
		return resp
	}
	h.p.mu.Lock()
	h.p.payloads++
	h.p.mu.Unlock()
	if after, err := h.b.StateDigest(); err != nil || !bytes.Equal(before, after) {
		h.t.Errorf("%s: the broker's state changed when the %s request it had served was overwritten (err %v)", h.b.Domain(), msg.Type, err)
	}
	return resp
}

// checkStack checks the approval stack b recorded for rarID: every
// domain on the path passes the destination's grant on as it is, so it
// is the one granted carries, byte for byte, and its statement verifies.
func checkStack(t *testing.T, w *experiment.World, b *bb.BB, rarID string, granted *signalling.ResultPayload, step string) {
	t.Helper()
	out := b.Outcome(rarID)
	if out == nil || out.Result == nil {
		t.Fatalf("%s: %s recorded no outcome for %s", step, b.Domain(), rarID)
	}
	recorded, err := out.Result.DecodedApprovals()
	if err != nil {
		t.Fatalf("%s: %s recorded an approval stack that does not decode: %v", step, b.Domain(), err)
	}
	want := granted.Approvals
	if !reflect.DeepEqual(recorded, want) {
		t.Fatalf("%s: %s recorded the approval stack\n %+v\nwant\n %+v", step, b.Domain(), recorded, want)
	}
	if err := w.VerifyApprovals(out.Result); err != nil {
		t.Fatalf("%s: %s's recorded approval stack: %v", step, b.Domain(), err)
	}
}

// TestNoFrameAliasOutlivesItsExchange drives the reserve path's whole
// life over poisoning connections: a 3-domain grant, its retransmission,
// status, a tunnel reserve and a batch through the endpoints it
// registered, a crash of the source broker with recovery from its
// journal and the retransmission answered from the recovered cache, and
// the cancels. Every step must succeed as it does on plain connections,
// and at every settled point each broker's StateDigest must read the
// same before and after the delivered frames are overwritten: the
// state a broker keeps aliases no frame. Each broker's recorded
// approval stack must verify too: it was adopted from a result whose
// frame was overwritten as soon as the broker's client had decoded it.
// Each served request's payload is overwritten too, as soon as the
// broker has answered it (poisonHandler): the state a broker keeps
// aliases no payload the server will decode the next request into.
func TestNoFrameAliasOutlivesItsExchange(t *testing.T) {
	p := &poisoner{responses: make(map[*poisonConn][]byte)}
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  3,
		Capacity:    1000 * units.Mbps,
		CallTimeout: 2 * time.Second,
		StateDir:    t.TempDir(),
		FsyncPolicy: "always",
		WrapDialer: func(_ string, d transport.Dialer) transport.Dialer {
			return poisonDialer{d, p}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	servers := make(map[string]*signalling.Server)
	for _, d := range w.Domains {
		servers[d] = p.front(t, w, d)
	}
	u, err := w.NewUser("alice", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(u.Close)
	src, dest := w.SourceDomain(), w.DestDomain()

	digests := func() map[string][]byte {
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
	settled := func(step string) map[string][]byte {
		t.Helper()
		before := digests()
		p.settle()
		after := digests()
		for _, d := range w.Domains {
			if !bytes.Equal(before[d], after[d]) {
				t.Fatalf("after %s: %s's state changed when the frames it had been delivered were overwritten", step, d)
			}
		}
		return after
	}
	status := func(rarID string) *signalling.Message {
		t.Helper()
		c, err := signalling.Dial(w.Net.NewEndpoint(u.DN(), u.Agent.Cert.DER), w.BBAddr(src))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		resp, err := c.Call(&signalling.Message{Type: signalling.MsgStatus, Status: &signalling.StatusPayload{RARID: rarID}}, 2*time.Second)
		if err != nil || resp.Result == nil {
			t.Fatalf("status %s: resp=%+v err=%v", rarID, resp, err)
		}
		return resp
	}

	// Grant, and the same RAR again: answered from the recorded outcome.
	spec := u.NewSpec(experiment.SpecOptions{DestDomain: dest, Bandwidth: 10 * units.Mbps})
	granted, err := u.ReserveE2E(spec)
	if err != nil || !granted.Granted {
		t.Fatalf("reserve: res=%+v err=%v", granted, err)
	}
	if len(granted.Approvals) != len(w.Domains) {
		t.Fatalf("grant carries %d approvals, want %d", len(granted.Approvals), len(w.Domains))
	}
	if err := w.VerifyApprovals(granted); err != nil {
		t.Fatal(err)
	}
	stacks := func(step string) {
		t.Helper()
		for _, d := range w.Domains {
			checkStack(t, w, w.BBs[d], spec.RARID, granted, step)
		}
	}
	settled("the grant")
	stacks("the grant")
	replayed := func(step string) {
		t.Helper()
		again, err := u.ReserveE2E(spec)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if !reflect.DeepEqual(again.Approvals, granted.Approvals) || again.Handle != granted.Handle {
			t.Fatalf("%s: replayed outcome differs from the grant:\n grant  %+v\n replay %+v", step, granted, again)
		}
		if err := w.VerifyApprovals(again); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	replayed("retransmission")
	if resp := status(spec.RARID); !resp.Result.Granted || resp.Result.Handle != granted.Handle {
		t.Fatalf("status: %+v", resp.Result)
	}
	settled("the retransmission")

	// A tunnel, and a batch through the two endpoints it registered: the
	// peer each endpoint answers to was read out of a frame.
	tunnel := u.NewSpec(experiment.SpecOptions{DestDomain: dest, Bandwidth: 100 * units.Mbps, Tunnel: true})
	if res, err := u.ReserveE2E(tunnel); err != nil || !res.Granted {
		t.Fatalf("tunnel reserve: res=%+v err=%v", res, err)
	}
	settled("the tunnel reserve")
	ops := []signalling.TunnelOp{
		{Action: signalling.OpAlloc, SubFlowID: "f1", Bandwidth: int64(5 * units.Mbps)},
		{Action: signalling.OpAlloc, SubFlowID: "f2", Bandwidth: int64(5 * units.Mbps)},
	}
	// Granted whole, the batch answers with no per-op results.
	results, err := w.BBs[src].TunnelBatch(tunnel.RARID, ops, u.DN())
	if err != nil || results != nil {
		t.Fatalf("tunnel batch: results=%+v err=%v", results, err)
	}
	for _, d := range []string{src, dest} {
		if ep, ok := w.BBs[d].Tunnel(tunnel.RARID); !ok || ep.Len() != 2 {
			t.Fatalf("%s: tunnel endpoint missing or not holding the batch's two sub-flows", d)
		}
	}
	settled("the tunnel batch")

	// The source broker dies and comes back from its journal holding the
	// state it had, its epoch counter fenced one stride up, and answers
	// the retransmission from it.
	preCrash, err := w.BBs[src].DigestSansEpoch()
	if err != nil {
		t.Fatal(err)
	}
	preEpoch := w.BBs[src].Epoch()
	servers[src].Shutdown()
	w.BBs[src].Crash()
	if err := w.RestartDomainFromJournal(src); err != nil {
		t.Fatal(err)
	}
	p.front(t, w, src)
	u.Close() // its connection died with the old frontend
	if recovered, err := w.BBs[src].DigestSansEpoch(); err != nil || !bytes.Equal(recovered, preCrash) {
		t.Fatalf("%s recovered a state other than the one it crashed with (err %v)", src, err)
	}
	if got := w.BBs[src].Epoch(); got != preEpoch+bb.EpochFenceStride {
		t.Fatalf("%s recovered epoch counter %d, want %d + the fence stride", src, got, preEpoch)
	}
	replayed("retransmission after recovery")
	settled("the recovery")
	stacks("the recovery")

	// Cancels travel the recorded route and leave nothing behind.
	for _, id := range []string{spec.RARID, tunnel.RARID} {
		if err := u.Cancel(src, id); err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
		if resp := status(id); resp.Result.Granted {
			t.Fatalf("status after cancel of %s: %+v", id, resp.Result)
		}
	}
	settled("the cancels")
	for _, d := range w.Domains {
		if n := grantedIn(w, d); n != 0 {
			t.Errorf("%s: %d reservations survive the cancels", d, n)
		}
	}
	p.mu.Lock() // a server may still be overwriting the request it has just answered
	poisoned, payloads := p.poisoned, p.payloads
	p.mu.Unlock()
	if poisoned < 20 {
		t.Fatalf("only %d frames were overwritten: the brokers' connections are not the poisoning ones", poisoned)
	}
	if payloads < 15 {
		t.Fatalf("only %d served payloads were overwritten: the brokers are not served through poisonHandler", payloads)
	}
}

// TestFollowerKeepsNoStreamFrame: a follower decodes its leader's
// stream in place (DESIGN.md §6.6, "Who owns a frame") and copies what
// it keeps as it applies each record. Every stream message a follower
// is handed is overwritten once it is answered; the followers must
// still hold their leader's state to the byte, and once one of them is
// promoted it must answer a retransmitted reserve with the recorded
// outcome, byte for byte. Every follower's recorded approval stack,
// registered from a record with no copy of its frame, must verify.
func TestFollowerKeepsNoStreamFrame(t *testing.T) {
	p := &poisoner{responses: make(map[*poisonConn][]byte)}
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  3,
		Replicas:    3,
		Capacity:    1000 * units.Mbps,
		CallTimeout: 2 * time.Second,
		StateDir:    t.TempDir(),
		FsyncPolicy: "never",
		WrapListener: func(_ string, _ int, ln transport.Listener) transport.Listener {
			return poisonListener{ln, p}
		},
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

	kept := u.NewSpec(experiment.SpecOptions{DestDomain: dest, Bandwidth: 10 * units.Mbps})
	granted, err := u.ReserveE2E(kept)
	if err != nil || !granted.Granted || len(granted.Approvals) != len(w.Domains) {
		t.Fatalf("reserve: res=%+v err=%v", granted, err)
	}
	cancelled := u.NewSpec(experiment.SpecOptions{DestDomain: dest, Bandwidth: 10 * units.Mbps})
	if res, err := u.ReserveE2E(cancelled); err != nil || !res.Granted {
		t.Fatalf("second reserve: res=%+v err=%v", res, err)
	}
	if err := u.Cancel(src, cancelled.RARID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	// Every frame of the stream so far was overwritten as soon as its
	// follower answered it: waitReplicated compares digests after that.
	for _, d := range w.Domains {
		waitReplicated(t, w, d, []int{0, 1, 2})
		for i := 0; i < 3; i++ {
			checkStack(t, w, w.ReplicaBB(d, i), kept.RARID, granted, fmt.Sprintf("replica %d", i))
		}
	}
	p.mu.Lock()
	poisoned := p.poisoned
	p.mu.Unlock()
	if poisoned < 12 {
		t.Fatalf("only %d stream messages were overwritten: the followers' connections are not the poisoning ones", poisoned)
	}

	if _, err := w.KillLeader(src); err != nil {
		t.Fatal(err)
	}
	if _, err := w.PromoteAny(src); err != nil {
		t.Fatal(err)
	}
	u.Close() // the user's pooled connection died with the leader
	again, err := u.ReserveE2E(kept)
	if err != nil {
		t.Fatalf("retransmission after failover: %v", err)
	}
	want := (&signalling.Message{Type: signalling.MsgResult, Result: granted}).AppendBinary(nil)
	got := (&signalling.Message{Type: signalling.MsgResult, Result: again}).AppendBinary(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("the promoted follower replayed another outcome:\n grant  %+v\n replay %+v", granted, again)
	}
}

// TestRecoveryKeepsNoWALByte: boot recovery decodes the WAL in place
// too. Every broker's journal replayed into a fresh broker, and every
// byte recovery read overwritten afterwards, must leave that broker
// holding the state of the one that wrote the journal, and a recorded
// approval stack that verifies: it was registered with no copy of its
// frame.
func TestRecoveryKeepsNoWALByte(t *testing.T) {
	stateDir := t.TempDir()
	w, err := experiment.BuildWorld(experiment.WorldConfig{
		NumDomains:  3,
		Capacity:    1000 * units.Mbps,
		CallTimeout: 2 * time.Second,
		StateDir:    stateDir,
		FsyncPolicy: "always",
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
	kept := u.NewSpec(experiment.SpecOptions{DestDomain: dest, Bandwidth: 10 * units.Mbps})
	granted, err := u.ReserveE2E(kept)
	if err != nil || !granted.Granted {
		t.Fatalf("reserve: res=%+v err=%v", granted, err)
	}
	if res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: dest, Bandwidth: 10 * units.Mbps})); err != nil || !res.Granted {
		t.Fatalf("reserve: res=%+v err=%v", res, err)
	}
	cancelled := u.NewSpec(experiment.SpecOptions{DestDomain: dest, Bandwidth: 10 * units.Mbps})
	if res, err := u.ReserveE2E(cancelled); err != nil || !res.Granted {
		t.Fatalf("reserve: res=%+v err=%v", res, err)
	}
	if err := u.Cancel(src, cancelled.RARID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	for _, d := range w.Domains {
		want, err := w.BBs[d].StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		recovered, err := w.BBs[d].RecoverScribbled(filepath.Join(stateDir, d))
		if err != nil {
			t.Fatalf("%s: recovery: %v", d, err)
		}
		checkStack(t, w, recovered, kept.RARID, granted, "recovery")
		got, err := recovered.StateDigest()
		recovered.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the broker recovered from its journal changed when the bytes it was recovered from were overwritten", d)
		}
	}
}
