package signalling

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/transport"
	"e2eqos/internal/wire"
)

// goldenMessages is one deterministic message per wire type. The
// vectors below pin the binary encoding of each: any byte-level change
// to the codec is a wire-format break and must show up here, not in
// production cross-version traffic.
func goldenMessages() []struct {
	name string
	msg  *Message
	hex  string
} {
	return []struct {
		name string
		msg  *Message
		hex  string
	}{
		{
			name: "reserve",
			msg: &Message{Type: MsgReserve, ID: 1, Reserve: &ReservePayload{
				Mode:         ModeEndToEnd,
				TraceID:      "T-1",
				EnvelopeData: []byte{0xE5, 0x01, 0x0A},
			}},
			hex: "e20101010a036532651203542d311a03e5010a",
		},
		{
			name: "cancel",
			msg:  &Message{Type: MsgCancel, ID: 2, Cancel: &CancelPayload{RARID: "RAR-1"}},
			hex:  "e20102020a055241522d31",
		},
		{
			name: "tunnel-batch",
			msg: &Message{Type: MsgTunnelBatch, ID: 5, TunnelBatch: &TunnelBatchPayload{
				TunnelRARID: "RAR-T",
				Seq:         7,
				Acked:       6,
				User:        identity.DN("/O=Grid/CN=alice"),
				Ops: []TunnelOp{
					{Action: OpAlloc, SubFlowID: "s1", Bandwidth: 500},
					{Action: OpRelease, SubFlowID: "s2"},
				},
			}},
			hex: "e20105050a055241522d541a102f4f3d477269642f434e3d616c696365220908011202733118e8072206080212027332380e400c",
		},
		{
			// Ingress rolled the flight-recorder dice: the sampled bit
			// (field 4) rides the reserve down the chain.
			name: "reserve-sampled",
			msg: &Message{Type: MsgReserve, ID: 8, Reserve: &ReservePayload{
				Mode:         ModeEndToEnd,
				TraceID:      "T-1",
				EnvelopeData: []byte{0xE5, 0x01, 0x0A},
				Sampled:      true,
			}},
			hex: "e20101080a036532651203542d311a03e5010a2001",
		},
		{
			// A sampled batch carries its trace id (field 5) and sampled
			// bit (field 6) to the far endpoint.
			name: "tunnel-batch-sampled",
			msg: &Message{Type: MsgTunnelBatch, ID: 9, TunnelBatch: &TunnelBatchPayload{
				TunnelRARID: "RAR-T",
				Seq:         1,
				User:        identity.DN("/O=Grid/CN=alice"),
				Ops: []TunnelOp{
					{Action: OpAlloc, SubFlowID: "s1", Bandwidth: 500},
				},
				TraceID: "T-2",
				Sampled: true,
			}},
			hex: "e20105090a055241522d541a102f4f3d477269642f434e3d616c696365220908011202733118e8072a03542d3230013802",
		},
		{
			// A split child re-routed onto its second disjoint path: the
			// ingress pinned the full path (field 5, repeated), salted the
			// idempotency key with the attempt index (field 6), and asked
			// this child for its share of the signed total (fields 7-9).
			name: "reserve-multipath",
			msg: &Message{Type: MsgReserve, ID: 14, Reserve: &ReservePayload{
				Mode:         ModeEndToEnd,
				TraceID:      "T-9",
				EnvelopeData: []byte{0xE5, 0x01, 0x0A},
				PathPin:      []string{"Domain0", "Domain2", "Domain4"},
				Attempt:      1,
				SplitPart:    2,
				SplitOf:      2,
				SplitBW:      500000,
			}},
			hex: "e201010e0a036532651203542d391a03e5010a" +
				"2a07446f6d61696e302a07446f6d61696e322a07446f6d61696e34" +
				"30023804400448c0843d",
		},
		{
			name: "status",
			msg:  &Message{Type: MsgStatus, ID: 6, Status: &StatusPayload{RARID: "RAR-1"}},
			hex:  "e20106060a055241522d31",
		},
		{
			name: "result",
			msg: &Message{Type: MsgResult, ID: 7, Result: &ResultPayload{
				Granted: true,
				Handle:  "h-1",
				Approvals: []DomainApproval{{
					Domain:    "DomainA",
					BBDN:      identity.DN("/O=Grid/CN=bb-a"),
					RARID:     "RAR-1",
					Handle:    "h-1",
					Granted:   true,
					Signature: []byte{0xDE, 0xAD},
				}},
				PolicyInfo:   map[string]string{"cost": "2", "bw": "5"},
				TraceID:      "T-1",
				Trace:        []obs.Span{{Domain: "DomainA", BB: "/O=Grid/CN=bb-a", Verdict: "granted", TotalNS: 42}},
				BatchResults: []TunnelOpResult{{SubFlowID: "s1", Granted: true}, {SubFlowID: "s2", Reason: "no capacity"}},
			}},
			hex: "e201070708011a03682d31" +
				"222c0a07446f6d61696e41120f2f4f3d477269642f434e3d62622d611a055241522d312203682d3128013a02dead" +
				"2a0502627701352a0704636f73740132" +
				"3203542d31" +
				"3a250a07446f6d61696e41120f2f4f3d477269642f434e3d62622d611a076772616e7465645054" +
				"42060a027331100142110a0273321a0b6e6f206361706163697479",
		},
		{
			// A leader shipping two raw journal frames to a follower.
			name: "journal-stream",
			msg: &Message{Type: MsgJournalStream, ID: 10, JournalStream: &JournalStreamPayload{
				Domain:    "DomainA",
				Term:      3,
				LeaderID:  1,
				FromSeq:   7,
				CommitSeq: 6,
				Records:   [][]byte{{0xB1, 0x01}, {0xB1, 0x02}},
			}},
			hex: "e201080a0a07446f6d61696e4110061802200e280c4202b1014202b102",
		},
		{
			// Catch-up: a full snapshot cut at seq 5 for a fresh follower.
			name: "journal-stream-snapshot",
			msg: &Message{Type: MsgJournalStream, ID: 11, JournalStream: &JournalStreamPayload{
				Domain:   "DomainA",
				Term:     3,
				LeaderID: 2,
				Snapshot: []byte{0xB3, 0x0A},
				SnapSeq:  5,
			}},
			hex: "e201080b0a07446f6d61696e41100618043202b30a380a",
		},
		{
			// An election vote request: candidate 2 standing for term 4
			// with last applied seq 9.
			name: "journal-stream-vote",
			msg: &Message{Type: MsgJournalStream, ID: 12, JournalStream: &JournalStreamPayload{
				Kind:     StreamVote,
				Domain:   "DomainA",
				Term:     4,
				LeaderID: 2,
				FromSeq:  9,
			}},
			hex: "e201080c0a07446f6d61696e411008180420124802",
		},
		{
			// A follower's stream acknowledgement rides the plain result
			// payload: applied seq plus the follower's term.
			name: "result-stream-ack",
			msg: &Message{Type: MsgResult, ID: 13, Result: &ResultPayload{
				Granted: true,
				AckSeq:  42,
				Term:    3,
			}},
			hex: "e201070d080148545006",
		},
	}
}

func TestGoldenWireVectors(t *testing.T) {
	for _, g := range goldenMessages() {
		got := g.msg.AppendBinary(nil)
		if hex.EncodeToString(got) != g.hex {
			t.Errorf("%s: encoded %s\n            want %s", g.name, hex.EncodeToString(got), g.hex)
			continue
		}
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: bad vector: %v", g.name, err)
		}
		dec, err := DecodeMessage(want)
		if err != nil {
			t.Errorf("%s: golden bytes failed to decode: %v", g.name, err)
			continue
		}
		// A decoded result holds its approvals as the bytes they came in.
		if r := dec.Result; r != nil {
			if err := r.DecodeApprovals(); err != nil {
				t.Errorf("%s: approvals failed to decode: %v", g.name, err)
				continue
			}
		}
		if !reflect.DeepEqual(dec, g.msg) {
			t.Errorf("%s: golden bytes decoded to\n%+v\nwant\n%+v", g.name, dec, g.msg)
		}
	}
}

// retiredFrames are golden vectors of retired shapes, byte for byte what
// an older broker sends: the two retired message types (codes 3 and 4,
// the single-op tunnel-alloc and tunnel-release) and a tunnel batch
// identified by a batch id (field 2) instead of its sender's seq.
func retiredFrames() [][]byte {
	var frames [][]byte
	for _, h := range []string{
		"e20103030a055241522d54120473662d311a102f4f3d477269642f434e3d616c6963652080897a",
		"e20104040a055241522d54120473662d31",
		"e20105050a055241522d541203422d311a102f4f3d477269642f434e3d616c696365220908011202733118e8072206080212027332",
	} {
		frame, err := hex.DecodeString(h)
		if err != nil {
			panic(err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// TestRetiredFramesRefusedByName: a frame of a retired shape is an error
// that says so, never a message with an empty type or a silent skip, and
// no message type encodes to a retired code.
func TestRetiredFramesRefusedByName(t *testing.T) {
	for _, frame := range retiredFrames() {
		msg, err := DecodeMessage(frame)
		if err == nil || msg != nil || !strings.Contains(err.Error(), "retired") {
			t.Errorf("frame of type code %d: msg=%+v err=%v, want an error that says retired", frame[2], msg, err)
		}
	}
	for code, mt := range typeCodes {
		if (mt == "") != (code == 0 || code == 3 || code == 4) {
			t.Errorf("type code %d names %q: exactly 3 and 4 are reserved", code, mt)
		}
	}
}

// TestBinaryFramesSkipUnknownFields pins the forward-compatibility
// rule: a frame carrying a field number this decoder has never heard
// of must still decode, dropping only the unknown field.
func TestBinaryFramesSkipUnknownFields(t *testing.T) {
	frame := (&Message{Type: MsgCancel, ID: 9, Cancel: &CancelPayload{RARID: "R"}}).AppendBinary(nil)
	// Append an unknown bytes field 15 and an unknown varint field 14.
	frame = append(frame, 15<<3|2, 3, 'x', 'y', 'z', 14<<3|0, 7)
	msg, err := DecodeMessage(frame)
	if err != nil {
		t.Fatalf("frame with unknown fields rejected: %v", err)
	}
	if msg.Cancel == nil || msg.Cancel.RARID != "R" || msg.ID != 9 {
		t.Fatalf("known fields lost around unknown ones: %+v", msg)
	}
}

// TestResultStackIsItsApprovalEntries: a decoded result holds its
// approvals as the field-4 entries of its frame, byte for byte, joined
// in order when other fields lie between them, and they decode to the
// approvals that were encoded. An approval torn inside a well-framed
// entry is refused when the result is decoded, so no hop relays it.
func TestResultStackIsItsApprovalEntries(t *testing.T) {
	claims := []DomainApproval{
		{Domain: "Domain2", BBDN: "/O=Grid/CN=bb-2", RARID: "RAR-1", Handle: "h-2", Granted: true, Signature: []byte{0xDE, 0xAD}},
		{Domain: "Domain1", BBDN: "/O=Grid/CN=bb-1", Handle: "h-1", Granted: true},
		{Domain: "Domain0", BBDN: "/O=Grid/CN=bb-0", Handle: "h-0", Granted: true},
	}
	entry := func(a DomainApproval) []byte {
		buf, start := wire.BeginNested(nil, 4)
		return wire.EndNested(a.appendFields(buf), start)
	}
	frame := []byte{BinMagic, BinVersion, typeCode(MsgResult), 7, 0x08, 0x01}
	frame = append(frame, entry(claims[0])...)
	frame = wire.AppendString(frame, 2, "between")
	frame = append(frame, entry(claims[1])...)
	frame = wire.AppendString(frame, 6, "T-1")
	frame = append(frame, entry(claims[2])...)
	msg, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	r := msg.Result
	if want := string(entry(claims[0])) + string(entry(claims[1])) + string(entry(claims[2])); r.Stack != want {
		t.Fatalf("stack\n % x\nwant the entries joined\n % x", r.Stack, want)
	}
	if r.Reason != "between" || r.TraceID != "T-1" || !r.Granted {
		t.Fatalf("fields between the entries decoded as %+v", r)
	}
	if err := r.DecodeApprovals(); err != nil || !reflect.DeepEqual(r.Approvals, claims) || r.Stack != "" {
		t.Fatalf("approvals decoded to %+v, stack %q (err %v), want %+v", r.Approvals, r.Stack, err, claims)
	}

	torn := []byte{BinMagic, BinVersion, typeCode(MsgResult), 7}
	torn = append(torn, entry(claims[0])...)
	torn = append(torn, 0x22, 0x03, 0x0a, 0x05, 'D') // a domain string longer than its entry
	if _, err := DecodeMessage(torn); err == nil {
		t.Fatal("a result carrying a torn approval decoded")
	}
}

// TestApprovalSignatureFieldBoundaries is the regression test for the
// field-masquerading fix: the old signing payload joined fields with
// '|', so shifting bytes across a field boundary produced the same
// payload — here RARID "R|evil" vs RARID "R" with Domain "evil|D"
// would both have signed as "approval|R|evil|D|...". The canonical
// binary payload length-prefixes every field, so the shifted approval
// must fail verification.
func TestApprovalSignatureFieldBoundaries(t *testing.T) {
	key, err := identity.GenerateKeyPair(identity.NewDN("Grid", "DomainA", "bb"))
	if err != nil {
		t.Fatal(err)
	}
	signed := &DomainApproval{
		Domain: "D", BBDN: key.DN, RARID: "R|evil",
		Handle: "h", Granted: true,
	}
	if err := SignApproval(signed, key); err != nil {
		t.Fatal(err)
	}
	if err := VerifyApproval(signed, key.Public()); err != nil {
		t.Fatalf("honest approval failed verification: %v", err)
	}
	shifted := &DomainApproval{
		Domain: "evil|D", BBDN: key.DN, RARID: "R",
		Handle: "h", Granted: true,
		Signature: signed.Signature,
	}
	if err := VerifyApproval(shifted, key.Public()); err == nil {
		t.Fatal("boundary-shifted approval verified under the original signature")
	}
	// And flipping the granted verdict must of course also fail.
	denied := *signed
	denied.Granted = false
	if err := VerifyApproval(&denied, key.Public()); err == nil {
		t.Fatal("verdict-flipped approval verified under the original signature")
	}
}

// slowSinkConn is a transport.Conn stub whose Send honours the send
// deadline by failing with a timeout (modelling a peer that stopped
// reading: the write blocks until the deadline expires, potentially
// leaving a half-written frame on a stream transport). Recv blocks
// until the connection is closed.
type slowSinkConn struct {
	mu       sync.Mutex
	deadline time.Time
	closed   chan struct{}
	once     sync.Once
}

func newSlowSinkConn() *slowSinkConn {
	return &slowSinkConn{closed: make(chan struct{})}
}

func (c *slowSinkConn) Send(msg []byte) error {
	c.mu.Lock()
	dl := c.deadline
	c.mu.Unlock()
	if !dl.IsZero() {
		select {
		case <-time.After(time.Until(dl)):
			return transport.ErrTimeout
		case <-c.closed:
			return fmt.Errorf("slowSinkConn: closed")
		}
	}
	<-c.closed
	return fmt.Errorf("slowSinkConn: closed")
}

func (c *slowSinkConn) Recv() ([]byte, error) {
	<-c.closed
	return nil, fmt.Errorf("slowSinkConn: closed")
}

func (c *slowSinkConn) SetSendDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return nil
}

func (c *slowSinkConn) PeerDN() identity.DN { return identity.DN("/O=Grid/CN=stuck-peer") }
func (c *slowSinkConn) PeerCertDER() []byte { return nil }
func (c *slowSinkConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestSendTimeoutIsTerminal is the regression test for the half-written
// frame fix: a send-deadline expiry may leave a truncated frame on the
// wire, so it must kill the whole client — Alive flips false and the
// next call fails fast — rather than letting the pool reuse a
// connection whose stream is mid-frame.
func TestSendTimeoutIsTerminal(t *testing.T) {
	conn := newSlowSinkConn()
	c := NewClient(conn)
	defer c.Close()

	msg := &Message{Type: MsgStatus, Status: &StatusPayload{RARID: "R"}}
	_, err := c.Call(msg, 20*time.Millisecond)
	if err == nil {
		t.Fatal("call over a stuck connection succeeded")
	}
	if !transport.IsTimeout(err) {
		t.Fatalf("want a timeout error, got %v", err)
	}
	if c.Alive() {
		t.Fatal("client still Alive after a send-deadline expiry left a half-written frame")
	}
	// The next call must fail fast on the recorded terminal fault, not
	// wait out another deadline.
	start := time.Now()
	if _, err := c.Call(msg, time.Second); err == nil {
		t.Fatal("call on a dead client succeeded")
	}
	if waited := time.Since(start); waited > 100*time.Millisecond {
		t.Fatalf("post-fault call blocked %v; want immediate failure", waited)
	}
}

// TestKeptRequestLeavesNothingOfTheLast: a connection decodes every
// request it serves into a message it keeps (serveConn), reusing the
// payloads and their PathPin and Ops arrays. A request decoded into a
// kept message that last held another must come out as it does from a
// fresh decode, with nothing of the earlier one: not its pin, not its
// ops beyond the new count, not its type's payload, not the envelope a
// reserve's payload decoded into itself.
func TestKeptRequestLeavesNothingOfTheLast(t *testing.T) {
	batch := func(n int) *Message {
		ops := make([]TunnelOp, n)
		for i := range ops {
			ops[i] = TunnelOp{Action: OpAlloc, SubFlowID: fmt.Sprintf("f%d", i), Bandwidth: int64(i + 1)}
		}
		return &Message{Type: MsgTunnelBatch, ID: uint64(n), TunnelBatch: &TunnelBatchPayload{
			TunnelRARID: fmt.Sprintf("RAR-T%d", n), Seq: int64(n), User: "/CN=u", Ops: ops, TraceID: "T", Sampled: n > 100,
		}}
	}
	pinned := &Message{Type: MsgReserve, ID: 1, Reserve: &ReservePayload{
		Mode: ModeEndToEnd, TraceID: "T-1", Sampled: true, EnvelopeData: []byte{1, 2, 3},
		PathPin: []string{"Domain0", "Domain1", "Domain2"}, Attempt: 2, SplitPart: 1, SplitOf: 2, SplitBW: 7,
	}}
	unpinned := &Message{Type: MsgReserve, ID: 2, Reserve: &ReservePayload{Mode: ModeLocal, EnvelopeData: []byte{4}}}
	cancel := &Message{Type: MsgCancel, ID: 3, Cancel: &CancelPayload{RARID: "RAR-1"}}
	for _, seq := range []struct {
		name        string
		first, then *Message
	}{
		{"a reserve with a pin, then one without", pinned, unpinned},
		{"a 256-op batch, then a 3-op batch", batch(256), batch(3)},
		{"a reserve, then a cancel", pinned, cancel},
	} {
		var r request
		if err := r.decodeFrame(seq.first.AppendBinary(nil), "", &r.kept); err != nil {
			t.Fatal(err)
		}
		frame := seq.then.AppendBinary(nil)
		if err := r.decodeFrame(frame, "", &r.kept); err != nil {
			t.Fatal(err)
		}
		fresh, err := DecodeMessage(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.AppendBinary(nil); !bytes.Equal(got, frame) {
			t.Errorf("%s: the kept message re-encodes to another frame:\n got  % x\n want % x", seq.name, got, frame)
		}
		got := r.Message
		if p := got.Reserve; p != nil && len(p.PathPin) == 0 {
			p.PathPin = nil // an emptied kept array, as a fresh decode leaves it
		}
		if !reflect.DeepEqual(&got, fresh) {
			t.Errorf("%s: kept decode\n %+v\nfresh decode\n %+v", seq.name, got, fresh)
		}
		if b := r.kept.batch; seq.then.TunnelBatch != nil && cap(b.Ops) < 256 {
			t.Errorf("%s: the kept Ops array was not reused (cap %d)", seq.name, cap(b.Ops))
		}
		if b := r.kept.batch.Ops; cap(b) > len(b) {
			if rest := b[len(b):cap(b)]; rest[0] != (TunnelOp{}) || rest[len(rest)-1] != (TunnelOp{}) {
				t.Errorf("%s: the kept Ops array still holds the earlier batch's ops past the new count", seq.name)
			}
		}
	}

	// A kept Ops array past maxKeptOps is dropped, not kept.
	var r request
	if err := r.decodeFrame(batch(maxKeptOps+1).AppendBinary(nil), "", &r.kept); err != nil {
		t.Fatal(err)
	}
	r.kept.reset()
	if r.kept.batch.Ops != nil {
		t.Errorf("a kept message holds on to an Ops array of %d ops, over the bound of %d", cap(r.kept.batch.Ops), maxKeptOps)
	}

	// A reserve's envelope decodes into the kept payload, and the request
	// decoded next holds nothing of it, a reserve that has not asked for
	// its envelope included.
	key, err := identity.GenerateKeyPair(identity.NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	env, err := envelope.Seal(key, envelope.Body{Request: []byte(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := NewReserveMessage(ModeEndToEnd, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, then := range []*Message{unpinned, cancel} {
		var r request
		if err := r.decodeFrame(sealed.AppendBinary(nil), "", &r.kept); err != nil {
			t.Fatal(err)
		}
		got, err := r.Reserve.EnvelopeFrom(key.DN)
		if err != nil {
			t.Fatal(err)
		}
		if got != &r.kept.reserve.decoded || got.SignerDN != key.DN || !bytes.Equal(got.Payload, env.Payload) || !bytes.Equal(got.Signature, env.Signature) {
			t.Fatalf("the envelope was not decoded into the kept payload: %+v", got)
		}
		if err := r.decodeFrame(then.AppendBinary(nil), "", &r.kept); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.kept.reserve.decoded, envelope.Envelope{}) {
			t.Errorf("a %s decoded after a reserve still holds its envelope: %+v", then.Type, r.kept.reserve.decoded)
		}
	}
}
