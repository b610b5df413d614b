package signalling

import (
	"fmt"
	"testing"
)

// benchBatchMessage builds the frame shape that dominates the sub-flow
// hot path: a tunnel batch of n alloc ops.
func benchBatchMessage(n int) *Message {
	ops := make([]TunnelOp, n)
	for i := range ops {
		ops[i] = TunnelOp{Action: OpAlloc, SubFlowID: fmt.Sprintf("sf-%04d", i), Bandwidth: 1_000_000}
	}
	return &Message{Type: MsgTunnelBatch, ID: 42, TunnelBatch: &TunnelBatchPayload{
		TunnelRARID: "RAR-tunnel-1",
		Seq:         1_000_001,
		Acked:       1_000_000,
		User:        "/O=Grid/CN=alice",
		Ops:         ops,
	}}
}

// BenchmarkCodec measures the codec on the batch-64 frame:
//
//	go test -run NONE -bench 'BenchmarkCodec|BenchmarkServeRoundTrip' -benchmem ./internal/signalling
//
// The encode arm is the one the allocation gate
// (TestEncodeAllocationFree) holds at zero.
func BenchmarkCodec(b *testing.B) {
	msg := benchBatchMessage(64)
	frame := msg.AppendBinary(nil)
	b.Logf("frame bytes: %d", len(frame))

	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 2*len(frame))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = msg.AppendBinary(buf[:0])
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeMessage(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
}
