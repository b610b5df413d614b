package signalling

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"e2eqos/internal/identity"
)

// TestEncodeAllocationFree is the gate behind `make bench-wire`: the
// encoders must not allocate when appending to a buffer with capacity.
// Decoding is allowed its bounded per-field allocations (strings,
// slices), but encoding a frame the RPC layer has a pooled buffer for
// must cost zero.
func TestEncodeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	msgs := goldenMessages()
	bufs := make([][]byte, len(msgs))
	for i, g := range msgs {
		bufs[i] = make([]byte, 0, 4096)
		_ = g.msg // warm nothing; AppendBinary has no lazy state
	}
	for i, g := range msgs {
		g := g
		buf := bufs[i]
		// The result golden carries a PolicyInfo map, whose canonical
		// key-sort allocates by design (cold path). Gate every other
		// message at zero and the map case at its documented bound.
		limit := 0.0
		if g.msg.Result != nil && len(g.msg.Result.PolicyInfo) > 0 {
			limit = 1.0
		}
		got := testing.AllocsPerRun(200, func() {
			buf = g.msg.AppendBinary(buf[:0])
		})
		if got > limit {
			t.Errorf("%s: AppendBinary allocates %.1f per op, want <= %.0f", g.name, got, limit)
		}
	}
}

// TestStreamExchangeAllocationFree gates both ends of a replication
// exchange at the codec (DESIGN.md §6.8): a stream message decoded into
// the message a server keeps for them — records in place, the domain
// unchanged — its answer built in the reply slot the server keeps for
// it (Peer.Reply), encoded and the slot emptied, and that answer decoded
// into the message a client keeps for Post answers, allocate nothing.
func TestStreamExchangeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	records := [][]byte{make([]byte, 120), make([]byte, 600)}
	frame := (&Message{Type: MsgJournalStream, JournalStream: &JournalStreamPayload{
		Domain: "Domain0", Term: 3, LeaderID: 1, FromSeq: 41, CommitSeq: 40, Records: records,
	}}).AppendBinary(nil)
	var stream, answer Message
	peer := Peer{Slot: new(ReplySlot)}
	buf := make([]byte, 0, 256)
	exchange := func() {
		if err := stream.decodeFrame(frame, "", nil); err != nil {
			t.Fatal(err)
		}
		p := stream.JournalStream
		if p.Domain != "Domain0" || len(p.Records) != 2 || len(p.Records[1]) != 600 {
			t.Fatalf("decoded %+v", p)
		}
		buf = peer.Reply(ResultPayload{Granted: true, AckSeq: p.FromSeq + 2, Term: p.Term}).appendFrame(buf[:0], 7)
		peer.Slot.sent()
		if err := answer.decodeFrame(buf, "", nil); err != nil {
			t.Fatal(err)
		}
		if !answer.Result.Granted || answer.Result.AckSeq != 43 || answer.ID != 7 {
			t.Fatalf("answer %+v", answer.Result)
		}
	}
	exchange() // the kept messages and their payloads exist from here on
	if got := testing.AllocsPerRun(200, exchange); got > 0 {
		t.Errorf("a stream message, its answer and the answer's decode allocate %.1f, want 0", got)
	}
}

// TestCallAllocationBound gates one timed call over the in-memory
// transport (DESIGN.md §6.6, "Who owns a frame"): the client's one timer
// bounds it and its answer channel is the pool's, the server decodes the
// request into a message its connection keeps and answers with a shared
// result or into the request's reply slot, and the answer is copied out
// of the demux's message into one from the answers' pool. What is left
// is the transport's copy of each frame sent and the request's one
// string, and the answer if the caller keeps it: 4 objects, 3 when the
// caller gives its answer back.
func TestCallAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	ok := OKResult("")
	for _, row := range []struct {
		name     string
		h        HandlerFunc
		released bool
		bound    float64
	}{
		{"a kept answer", func(Peer, *Message) *Message { return ok }, false, 4},
		{"a released answer", func(Peer, *Message) *Message { return ok }, true, 3},
		{"a released answer from the reply slot", func(p Peer, _ *Message) *Message {
			return p.Reply(ResultPayload{Granted: true})
		}, true, 3},
	} {
		c, ln := dialPair(t, 0)
		go NewServer(row.h, nil).Serve(ln)
		req := &Message{Type: MsgStatus, Status: &StatusPayload{RARID: "RAR-1"}}
		call := func() {
			resp, err := c.Call(req, time.Minute)
			if err != nil || !resp.Result.Granted {
				t.Fatalf("%s: call: resp=%+v err=%v", row.name, resp, err)
			}
			if row.released {
				Release(resp)
			}
		}
		for i := 0; i < 50; i++ {
			call() // the timer, the kept messages and a parked worker exist from here on
		}
		got := testing.AllocsPerRun(500, call)
		t.Logf("%s: %.1f objects", row.name, got)
		if got > row.bound {
			t.Errorf("%s: a timed call allocates %.1f objects, want <= %.0f", row.name, got, row.bound)
		}
	}
}

// TestServedRequestAllocationBound gates the decode of a served request
// into the message its connection keeps (serveConn): the payload, the
// PathPin and the Ops array are the kept message's, so what is left is
// the request's strings and, for a batch, the one copy of its ids.
func TestServedRequestAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	ops := make([]TunnelOp, 256)
	for i := range ops {
		ops[i] = TunnelOp{Action: OpAlloc, SubFlowID: fmt.Sprintf("flow-%03d", i), Bandwidth: 1000}
	}
	cases := []struct {
		name    string
		msg     *Message
		strings int // the strings a decode makes: the bound
	}{
		{"reserve", &Message{Type: MsgReserve, ID: 9, Reserve: &ReservePayload{
			Mode: ModeEndToEnd, TraceID: "T-1", EnvelopeData: make([]byte, 900),
			PathPin: []string{"Domain0", "Domain1", "Domain2"}, Attempt: 1,
		}}, 5}, // mode, trace id, three pins
		{"cancel", &Message{Type: MsgCancel, ID: 10, Cancel: &CancelPayload{RARID: "RAR-1"}}, 1},
		{"batch-256", &Message{Type: MsgTunnelBatch, ID: 11, TunnelBatch: &TunnelBatchPayload{
			TunnelRARID: "RAR-T", Seq: 7, Acked: 6, User: "/O=Grid/CN=alice", Ops: ops,
		}}, 3}, // rar id, user, the ids' one copy
	}
	var r request
	for _, tc := range cases {
		frame := tc.msg.AppendBinary(nil)
		decode := func() {
			if err := r.decodeFrame(frame, "", &r.kept); err != nil {
				t.Fatal(err)
			}
		}
		decode() // the arrays exist from here on
		if got := testing.AllocsPerRun(200, decode); got > float64(tc.strings) {
			t.Errorf("%s: decoding into a kept message allocates %.1f, want <= %d (its strings)", tc.name, got, tc.strings)
		}
		if got := r.AppendBinary(nil); !bytes.Equal(got, frame) {
			t.Errorf("%s: the kept message re-encodes to another frame", tc.name)
		}
	}
}

// TestDecodeGrantAllocationBound gates what a hop pays for the grant it
// is answered with (DESIGN.md §6.6, "Who owns a frame"): the frame
// decoded into the message a client's reader keeps, and the copy of the
// result a call hands its caller. The approvals stay the bytes they
// came in, so a grant of 8 claims costs what one of 2 does: the result's
// one string and the copy, no list and no signature array. Decoding the
// approvals, which only a reader that checks them does, costs one copy
// of their bytes and one list; and the decoded result re-encodes to the
// frame it came in.
func TestDecodeGrantAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	grant := func(claims int) []byte {
		res := &ResultPayload{Granted: true, Handle: "net-Domain0-1"}
		for i := claims - 1; i >= 0; i-- {
			res.Approvals = append(res.Approvals, DomainApproval{
				Domain: fmt.Sprintf("Domain%d", i), BBDN: identity.DN(fmt.Sprintf("/O=Grid/OU=Domain%d/CN=bb-%d", i, i)),
				Handle: fmt.Sprintf("net-Domain%d-1", i), Granted: true,
			})
		}
		res.Approvals[0].RARID, res.Approvals[0].Signature = "RAR-1", bytes.Repeat([]byte{0xA5}, 64)
		return (&Message{Type: MsgResult, ID: 9, Result: res}).AppendBinary(nil)
	}
	var kept Message
	var costs []float64
	for _, claims := range []int{2, 8} {
		frame := grant(claims)
		var res *ResultPayload
		decode := func() {
			if err := kept.decodeFrame(frame, "", nil); err != nil {
				t.Fatal(err)
			}
			res = newResult(*kept.Result).Result
		}
		decode() // the kept payload exists from here on
		got := testing.AllocsPerRun(200, decode)
		t.Logf("%d claims: decoding a grant allocates %.1f objects", claims, got)
		if got > 2 {
			t.Errorf("%d claims: decoding a grant allocates %.1f objects, want at most 2", claims, got)
		}
		costs = append(costs, got)
		if res.Stack == "" || len(res.Approvals) != 0 {
			t.Fatalf("%d claims: decoded a stack of %d bytes and %d approvals, want the approvals as bytes", claims, len(res.Stack), len(res.Approvals))
		}
		if re := (&Message{Type: MsgResult, ID: 9, Result: res}).AppendBinary(nil); !bytes.Equal(re, frame) {
			t.Errorf("%d claims: a decoded grant re-encodes to another frame:\n got  % x\n want % x", claims, re, frame)
		}
		var approvals []DomainApproval
		if got := testing.AllocsPerRun(200, func() {
			c := *res
			if err := c.DecodeApprovals(); err != nil {
				t.Fatal(err)
			}
			approvals = c.Approvals
		}); got > 2 {
			t.Errorf("%d claims: DecodeApprovals allocates %.1f objects, want at most 2", claims, got)
		}
		if len(approvals) != claims || approvals[0].Domain != fmt.Sprintf("Domain%d", claims-1) || len(approvals[0].Signature) != 64 {
			t.Errorf("%d claims: decoded %+v", claims, approvals)
		}
	}
	if costs[1] != costs[0] {
		t.Errorf("decoding a grant of 8 claims allocates %.1f objects, one of 2 %.1f: a claim costs an allocation", costs[1], costs[0])
	}
}
