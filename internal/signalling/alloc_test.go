package signalling

import (
	"bytes"
	"fmt"
	"testing"
	"time"
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
// unchanged — its answer built by Reply and encoded, and that answer
// decoded into the message a client keeps for Post answers, allocate
// nothing.
func TestStreamExchangeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	records := [][]byte{make([]byte, 120), make([]byte, 600)}
	frame := (&Message{Type: MsgJournalStream, JournalStream: &JournalStreamPayload{
		Domain: "Domain0", Term: 3, LeaderID: 1, FromSeq: 41, CommitSeq: 40, Records: records,
	}}).AppendBinary(nil)
	var stream, answer Message
	buf := make([]byte, 0, 256)
	exchange := func() {
		if err := stream.decodeFrame(frame, "", nil); err != nil {
			t.Fatal(err)
		}
		p := stream.JournalStream
		if p.Domain != "Domain0" || len(p.Records) != 2 || len(p.Records[1]) != 600 {
			t.Fatalf("decoded %+v", p)
		}
		buf = p.Reply(true, p.FromSeq+2, p.Term).appendFrame(buf[:0], 7)
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
// transport, answered with a shared result (DESIGN.md §6.6, "Who owns a
// frame"): the client's one timer bounds it and its answer channel is
// the pool's, the server decodes the request into a message its
// connection keeps, and the answer is copied out of the demux's message
// in one allocation. What is left is the transport's copy of each frame
// sent, the request's one string, and the answer the caller keeps.
func TestCallAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	c, ln := dialPair(t, 0)
	ok := OKResult("")
	go NewServer(HandlerFunc(func(Peer, *Message) *Message { return ok }), nil).Serve(ln)
	req := &Message{Type: MsgStatus, Status: &StatusPayload{RARID: "RAR-1"}}
	call := func() {
		resp, err := c.Call(req, time.Minute)
		if err != nil || !resp.Result.Granted {
			t.Fatalf("call: resp=%+v err=%v", resp, err)
		}
	}
	for i := 0; i < 50; i++ {
		call() // the timer, the kept messages and a parked worker exist from here on
	}
	if got := testing.AllocsPerRun(500, call); got > 4 {
		t.Errorf("a timed call allocates %.1f objects, want <= 4", got)
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
