package bb

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"e2eqos/internal/identity"
	"e2eqos/internal/signalling"
)

// TestOpsSum: the fingerprint tells a batch from any batch that differs
// in one op's action, bandwidth or id, in the order of its ops or in
// their number, and it is pinned: it rides the batch records, so a build
// that hashes differently would refuse a retransmission its journal
// answered before.
func TestOpsSum(t *testing.T) {
	batch := []signalling.TunnelOp{
		{Action: signalling.OpAlloc, SubFlowID: "sf-0000001q.17", Bandwidth: 5_000_000},
		{Action: signalling.OpRelease, SubFlowID: "f2"},
		{Action: signalling.OpAlloc, SubFlowID: "12345678", Bandwidth: 1},
	}
	if got := opsSum(batch); got != 0xf593c3c5e4ac0f1d {
		t.Errorf("opsSum = %#x, the pinned value is 0xf593c3c5e4ac0f1d", got)
	}
	variants := map[string]func(ops []signalling.TunnelOp) []signalling.TunnelOp{
		"action":    func(ops []signalling.TunnelOp) []signalling.TunnelOp { ops[1].Action = signalling.OpAlloc; return ops },
		"bandwidth": func(ops []signalling.TunnelOp) []signalling.TunnelOp { ops[0].Bandwidth++; return ops },
		"long id":   func(ops []signalling.TunnelOp) []signalling.TunnelOp { ops[0].SubFlowID = "sf-0000001q.18"; return ops },
		"id head":   func(ops []signalling.TunnelOp) []signalling.TunnelOp { ops[0].SubFlowID = "tf-0000001q.17"; return ops },
		"short id":  func(ops []signalling.TunnelOp) []signalling.TunnelOp { ops[1].SubFlowID = "f3"; return ops },
		"id length": func(ops []signalling.TunnelOp) []signalling.TunnelOp { ops[1].SubFlowID = "f2\x00"; return ops },
		"order":     func(ops []signalling.TunnelOp) []signalling.TunnelOp { ops[0], ops[2] = ops[2], ops[0]; return ops },
		"one less":  func(ops []signalling.TunnelOp) []signalling.TunnelOp { return ops[:2] },
	}
	for name, change := range variants {
		if opsSum(change(slices.Clone(batch))) == opsSum(batch) {
			t.Errorf("%s: the sum did not change", name)
		}
	}
}

// TestBatchCacheRecordsRebuildIt: the records a replay cache's batches
// leave, restored in journal order, rebuild the live cache, and so does
// its snapshot listing. Batches settle out of order; one sender never
// acknowledges and runs past the cap, the other acknowledges below its
// oldest batch in flight. restore has no cap of its own: the low-water a
// record carries already holds the cap's retirements, so a follower and
// a rebooted broker end where the live one did.
func TestBatchCacheRecordsRebuildIt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	granted := &signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{Granted: true}}
	type sent struct {
		sender identity.DN
		seq    int64
		e      *entry[struct{}]
	}
	live := &batchCache{}
	var open []sent
	var recs []tunnelBatchRec
	settle := func(k int) {
		s := open[k]
		open = slices.Delete(open, k, k+1)
		low := live.settle(s.sender, s.e, granted)
		recs = append(recs, tunnelBatchRec{Sender: s.sender, Seq: s.seq, Low: low, Sum: uint64(s.seq), Outcome: granted})
	}
	next := map[identity.DN]int64{}
	for i := 0; i < 6*maxHeldBatches; i++ {
		if len(open) > 8 || (len(open) > 0 && rng.Intn(2) == 0) {
			settle(rng.Intn(len(open)))
			continue
		}
		sender := identity.DN("silent")
		if rng.Intn(2) == 0 {
			sender = "acking"
		}
		next[sender]++
		seq := next[sender]
		var acked int64
		if sender == "acking" {
			acked = seq - 1
			for _, s := range open {
				if s.sender == sender {
					acked = min(acked, s.seq-1)
				}
			}
		}
		e, dup, err := live.begin(sender, seq, acked, uint64(seq))
		if err != nil || dup {
			t.Fatalf("batch %d of %s: dup=%t err=%v", seq, sender, dup, err)
		}
		open = append(open, sent{sender, seq, e})
	}
	for len(open) > 0 {
		settle(0)
	}
	want := live.list()
	held := map[identity.DN]int{}
	for _, r := range want {
		held[r.Sender]++
	}
	if held["silent"] != maxHeldBatches || held["acking"] > 9 {
		t.Fatalf("the live cache holds %v batches per sender, want the cap %d for the silent one and at most 9 for the other", held, maxHeldBatches)
	}
	fromRecords := &batchCache{}
	for i := range recs {
		fromRecords.restore(&recs[i])
	}
	if got := fromRecords.list(); !reflect.DeepEqual(got, want) {
		t.Errorf("the records rebuilt %d rows, the live cache lists %d", len(got), len(want))
	}
	fromSnapshot := &batchCache{}
	for i := range want {
		fromSnapshot.restore(&want[i])
	}
	if got := fromSnapshot.list(); !reflect.DeepEqual(got, want) {
		t.Errorf("the snapshot rebuilt %d rows, the live cache lists %d", len(got), len(want))
	}
}
