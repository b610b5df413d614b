package signalling

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"
)

// validateOracle is Validate as it stood before the duplicate table: a
// map of the ids seen so far. It knows nothing of MaxBatchOps, which
// TestBatchSizeBound covers.
func validateOracle(p *TunnelBatchPayload) error {
	if p.TunnelRARID == "" {
		return fmt.Errorf("signalling: batch without tunnel rar id")
	}
	if p.Seq < 0 || p.Acked < 0 {
		return fmt.Errorf("signalling: batch with negative seq %d or acked %d", p.Seq, p.Acked)
	}
	if p.Acked > 0 && p.Acked >= p.Seq {
		return fmt.Errorf("signalling: batch %d acknowledges %d, not below itself", p.Seq, p.Acked)
	}
	if len(p.Ops) == 0 {
		return fmt.Errorf("signalling: empty batch")
	}
	seen := make(map[string]struct{}, len(p.Ops))
	for i, op := range p.Ops {
		if op.SubFlowID == "" {
			return fmt.Errorf("signalling: batch op %d without sub-flow id", i)
		}
		if _, dup := seen[op.SubFlowID]; dup {
			return fmt.Errorf("signalling: batch op %d: duplicate sub-flow %q", i, op.SubFlowID)
		}
		seen[op.SubFlowID] = struct{}{}
		switch op.Action {
		case OpAlloc:
			if op.Bandwidth <= 0 {
				return fmt.Errorf("signalling: batch op %d: non-positive bandwidth %d", i, op.Bandwidth)
			}
		case OpRelease:
		default:
			return fmt.Errorf("signalling: batch op %d: unknown action %q", i, op.Action)
		}
	}
	return nil
}

// sameVerdict requires Validate and the oracle to agree on p, down to
// the error text.
func sameVerdict(t *testing.T, p *TunnelBatchPayload) {
	t.Helper()
	got, want := p.Validate(), validateOracle(p)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("Validate = %v, oracle = %v (%d ops)", got, want, len(p.Ops))
	}
}

// collidingIDs returns n distinct ids whose hashes agree in their low
// bits, so that in a duplicate table of up to 1<<lowBits slots (1500
// ops make one of 1<<12) they all start probing at one slot.
func collidingIDs(n, lowBits int, tag string) []string {
	mask := uint64(1)<<lowBits - 1
	var ids []string
	for i := 0; len(ids) < n; i++ {
		id := tag + strconv.Itoa(i)
		if maphash.String(dupSeed, id)&mask == 7 {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestValidateMatchesOracle drives Validate and the map-based oracle
// with the same seeded batches: both table arms (stack up to 512 ops,
// heap above), duplicates at every distance, probe runs made long on
// purpose, and each other defect placed before and after a duplicate so
// that the first one reported is the first one in op order.
func TestValidateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	colliding := collidingIDs(64, 12, "c")
	batches := 10000
	if testing.Short() {
		batches = 1000
	}
	for b := 0; b < batches; b++ {
		n := 1 + rng.Intn(1500)
		if b%4 != 0 {
			n = 1 + rng.Intn(40) // small batches reach the defect mixes more often
		}
		p := &TunnelBatchPayload{TunnelRARID: "r", Seq: int64(b + 1), Acked: int64(b), Ops: make([]TunnelOp, n)}
		for i := range p.Ops {
			p.Ops[i] = TunnelOp{Action: OpRelease, SubFlowID: "sf" + strconv.Itoa(b) + "." + strconv.Itoa(i)}
			if rng.Intn(2) == 0 {
				p.Ops[i].Action, p.Ops[i].Bandwidth = OpAlloc, 1+rng.Int63n(1000)
			}
		}
		if rng.Intn(3) == 0 { // one long probe run
			for k, at := range rng.Perm(n)[:min(n, len(colliding))] {
				p.Ops[at].SubFlowID = colliding[k]
			}
		}
		// Up to three defects at random places, in random order: the
		// verdict is whichever comes first in op order.
		for d := rng.Intn(4); d > 0; d-- {
			at := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				p.Ops[at].SubFlowID = ""
			case 1:
				p.Ops[at].Action = "flood"
			case 2:
				p.Ops[at].Action, p.Ops[at].Bandwidth = OpAlloc, -rng.Int63n(2)
			case 3:
				from := rng.Intn(n)
				switch rng.Intn(4) {
				case 0:
					from, at = 0, n-1 // first and last
				case 1:
					from = max(at-1, 0) // adjacent
				}
				p.Ops[at].SubFlowID = p.Ops[from].SubFlowID
			}
		}
		switch rng.Intn(50) {
		case 0:
			p.TunnelRARID = ""
		case 1:
			p.Seq = -p.Seq
		case 2:
			p.Acked = p.Seq
		case 3:
			p.Ops = nil
		}
		sameVerdict(t, p)
	}
	// Every id of a batch in one probe run, the duplicate at its far end.
	p := &TunnelBatchPayload{TunnelRARID: "r", Seq: 1}
	for _, id := range colliding {
		p.Ops = append(p.Ops, TunnelOp{Action: OpRelease, SubFlowID: id})
	}
	sameVerdict(t, p)
	p.Ops = append(p.Ops, TunnelOp{Action: OpRelease, SubFlowID: colliding[0]})
	sameVerdict(t, p)
	if err := p.Validate(); err == nil {
		t.Fatal("duplicate at the end of a probe run accepted")
	}
}

// releaseBatch is a well-formed batch of n release ops.
func releaseBatch(n int) *TunnelBatchPayload {
	p := &TunnelBatchPayload{TunnelRARID: "RAR-tunnel-1", Seq: 1, User: "/O=Grid/CN=alice", Ops: make([]TunnelOp, n)}
	for i := range p.Ops {
		p.Ops[i] = TunnelOp{Action: OpRelease, SubFlowID: "sf-" + strconv.Itoa(i)}
	}
	return p
}

// emptyOpFields is n two-byte empty op fields, to append to a batch
// frame: the cheapest way to a large op count, and the shape the size
// bound exists for.
func emptyOpFields(n int) []byte { return bytes.Repeat([]byte{4<<3 | 2, 0}, n) }

// TestBatchSizeBound: a batch has a largest size, and both ends refuse
// one past it in the same words — the decoder while it counts, before
// it makes anything, and Validate at the source.
func TestBatchSizeBound(t *testing.T) {
	frameOf := func(p *TunnelBatchPayload) []byte {
		return (&Message{Type: MsgTunnelBatch, ID: 1, TunnelBatch: p}).AppendBinary(nil)
	}
	emptyOps := func(n int) []byte {
		return append(frameOf(&TunnelBatchPayload{TunnelRARID: "r", Seq: 1}), emptyOpFields(n)...)
	}
	for _, tc := range []struct {
		name    string
		ops     int
		refused bool
	}{
		{"at the bound", MaxBatchOps, false},
		{"one past the bound", MaxBatchOps + 1, true},
	} {
		p := releaseBatch(tc.ops)
		verr := p.Validate()
		_, derr := DecodeMessage(frameOf(p))
		msg, eerr := DecodeMessage(emptyOps(tc.ops))
		if !tc.refused {
			if verr != nil || derr != nil || eerr != nil {
				t.Errorf("%s: Validate = %v, decode = %v, decode of empty ops = %v; want all accepted", tc.name, verr, derr, eerr)
			} else if len(msg.TunnelBatch.Ops) != tc.ops {
				t.Errorf("%s: decoded %d ops, want %d", tc.name, len(msg.TunnelBatch.Ops), tc.ops)
			}
			continue
		}
		want := fmt.Sprintf("signalling: batch of more than %d ops", MaxBatchOps)
		if verr == nil || verr.Error() != want {
			t.Errorf("%s: Validate = %v, want %q", tc.name, verr, want)
		}
		for _, err := range []error{derr, eerr} {
			if err == nil || err.Error() != "signalling: decode tunnel-batch: "+want {
				t.Errorf("%s: decode = %v, want it refused with %q", tc.name, err, want)
			}
		}
	}
}

// TestBatchValidateAllocationFree: the duplicate table of a batch of up
// to 512 ops lives on the stack.
func TestBatchValidateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	for _, n := range []int{256, 512} {
		p := releaseBatch(n)
		if got := testing.AllocsPerRun(200, func() {
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("Validate of %d ops allocates %.1f per call, want 0", n, got)
		}
	}
}

// TestBatchDecodeAllocationBound: decoding a batch allocates per frame,
// not per op — the message, the payload and its own strings, the frame
// text and Ops.
func TestBatchDecodeAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate is meaningless under the race detector")
	}
	allocs := func(n int) float64 {
		frame := benchBatchMessage(n).AppendBinary(nil)
		return testing.AllocsPerRun(200, func() {
			if _, err := DecodeMessage(frame); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(256)
	if large > 10 || large > small {
		t.Errorf("decode allocates %.1f for 256 ops and %.1f for 64, want at most 10 and no growth with the op count", large, small)
	}
}

// TestBatchDecodeAliasesOnlySubFlowIDs pins which decoded strings share
// the frame text: every op's SubFlowID does, and nothing else may — the
// payload's own strings may outlive the request (a flight-recorder event
// keeps the RAR id, the user and the trace id) and would pin a whole
// frame each.
func TestBatchDecodeAliasesOnlySubFlowIDs(t *testing.T) {
	in := benchBatchMessage(8)
	in.TunnelBatch.TraceID = "t-0123456789abcdef"
	in.TunnelBatch.Ops[3].Action = "flood" // travels as a string, field 4
	frame := in.AppendBinary(nil)
	msg, err := DecodeMessage(frame)
	if err != nil {
		t.Fatal(err)
	}
	p := msg.TunnelBatch
	// The text is a copy of frame[3:]; the first id's offset in the frame
	// gives its base.
	first := p.Ops[0].SubFlowID
	base := uintptr(unsafe.Pointer(unsafe.StringData(first))) - uintptr(bytes.Index(frame[3:], []byte(first)))
	inText := func(s string) bool {
		at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return at >= base && at < base+uintptr(len(frame)-3)
	}
	for i, op := range p.Ops {
		if op.SubFlowID != in.TunnelBatch.Ops[i].SubFlowID || !inText(op.SubFlowID) {
			t.Errorf("op %d: sub-flow id %q is not a substring of the frame text", i, op.SubFlowID)
		}
		if op.Action != in.TunnelBatch.Ops[i].Action || inText(string(op.Action)) {
			t.Errorf("op %d: action %q wrong or aliasing the frame text", i, op.Action)
		}
	}
	for name, s := range map[string]string{
		"TunnelRARID": p.TunnelRARID, "User": string(p.User), "TraceID": p.TraceID,
	} {
		if s == "" || inText(s) {
			t.Errorf("%s = %q: empty or aliasing the frame text", name, s)
		}
	}
}
