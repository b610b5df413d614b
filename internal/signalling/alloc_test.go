package signalling

import "testing"

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
		if err := stream.decodeFrame(frame, ""); err != nil {
			t.Fatal(err)
		}
		p := stream.JournalStream
		if p.Domain != "Domain0" || len(p.Records) != 2 || len(p.Records[1]) != 600 {
			t.Fatalf("decoded %+v", p)
		}
		buf = p.Reply(true, p.FromSeq+2, p.Term).appendFrame(buf[:0], 7)
		if err := answer.decodeFrame(buf, ""); err != nil {
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
