package bb_test

import (
	"bytes"
	"encoding/binary"
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
// moment the response to it has been sent, and remembers the response
// frames it delivers until the test, between two steps, declares every
// exchange settled and has those overwritten too. Whatever a broker
// then still holds of a frame — an alias in its durable state, a
// goroutine still reading — shows up as a changed digest, a broken
// replay, or a race report.
type poisoner struct {
	mu        sync.Mutex
	responses [][]byte // delivered, not yet overwritten
	poisoned  int
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
	p.responses = nil
	p.mu.Unlock()
	for _, f := range frames {
		p.poison(f)
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
	frame, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	switch id, result, ok := frameID(frame); {
	case !ok:
	case result:
		c.p.mu.Lock()
		c.p.responses = append(c.p.responses, frame)
		c.p.mu.Unlock()
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
	srv := signalling.NewServer(w.BBs[domain], w.BBs[domain].Logger())
	go srv.Serve(poisonListener{ln, p})
	t.Cleanup(srv.Shutdown)
	return srv
}

// TestNoFrameAliasOutlivesItsExchange drives the reserve path's whole
// life over poisoning connections: a 3-domain grant, its retransmission,
// status, a tunnel reserve and a batch through the endpoints it
// registered, a crash of the source broker with recovery from its
// journal and the retransmission answered from the recovered cache, and
// the cancels. Every step must succeed as it does on plain connections,
// and at every settled point each broker's StateDigest must read the
// same before and after the delivered frames are overwritten: the
// state a broker keeps aliases no frame.
func TestNoFrameAliasOutlivesItsExchange(t *testing.T) {
	p := &poisoner{}
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
		resp, err := c.CallTimeout(&signalling.Message{Type: signalling.MsgStatus, Status: &signalling.StatusPayload{RARID: rarID}}, 2*time.Second)
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
	settled("the grant")
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
	results, err := w.BBs[src].TunnelBatch(tunnel.RARID, ops, u.DN())
	if err != nil || !results[0].Granted || !results[1].Granted {
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
	poisoned := p.poisoned
	p.mu.Unlock()
	if poisoned < 20 {
		t.Fatalf("only %d frames were overwritten: the brokers' connections are not the poisoning ones", poisoned)
	}
}

// TestFollowerKeepsNoStreamFrame: a follower decodes its leader's
// stream in place (DESIGN.md §6.6, "Who owns a frame") and copies what
// it keeps as it applies each record. Every stream message a follower
// is handed is overwritten once it is answered; the followers must
// still hold their leader's state to the byte, and once one of them is
// promoted it must answer a retransmitted reserve with the recorded
// outcome, byte for byte.
func TestFollowerKeepsNoStreamFrame(t *testing.T) {
	p := &poisoner{}
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
// holding the state of the one that wrote the journal.
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
	for i := 0; i < 2; i++ {
		if res, err := u.ReserveE2E(u.NewSpec(experiment.SpecOptions{DestDomain: dest, Bandwidth: 10 * units.Mbps})); err != nil || !res.Granted {
			t.Fatalf("reserve: res=%+v err=%v", res, err)
		}
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
