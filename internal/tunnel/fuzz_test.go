package tunnel

import (
	"bytes"
	"math"
	"testing"
	"time"

	"e2eqos/internal/units"
)

// seedEndpoint is the snapshot of an endpoint holding sub-flows, as a
// broker journals and rotates it.
func seedEndpoint(tb testing.TB) []byte {
	tb.Helper()
	ep, err := NewEndpoint("RAR-T", 50*units.Mbps, units.NewWindow(time.Unix(1_700_000_000, 0), time.Hour),
		"/O=Grid/OU=DomainB/CN=bb-b", "/O=Grid/CN=alice")
	if err != nil {
		tb.Fatal(err)
	}
	ep.Epoch = 3
	for _, id := range []string{"sf-1", "sf-2", "sf-3"} {
		if _, err := ep.Allocate(id, 10*units.Mbps); err != nil {
			tb.Fatal(err)
		}
	}
	if _, _, err := ep.Release("sf-2"); err != nil {
		tb.Fatal(err)
	}
	return ep.Snapshot().AppendBinary(nil)
}

// FuzzRestoreEndpoint: the endpoint snapshot, which every tunnel
// establishment record and every broker snapshot carries, never panics
// the decoder or Restore; what decodes is a fixed point of
// encode-then-decode; and what Restore accepts keeps its own books —
// Used() is the sum of its sub-flows, Len() their count, and Used() no
// more than the aggregate.
func FuzzRestoreEndpoint(f *testing.F) {
	whole := seedEndpoint(f)
	f.Add(whole)
	// Cut at every eighth of its length: a sub-flow torn somewhere.
	for i := 1; i < 8; i++ {
		f.Add(whole[:len(whole)*i/8])
	}
	f.Add(EndpointSnapshot{RARID: "RAR-T", Aggregate: units.Mbps}.AppendBinary(nil))
	// Sub-flows whose total does not fit an int64: it must not wrap
	// around below the aggregate.
	f.Add(EndpointSnapshot{RARID: "RAR-T", Aggregate: units.Mbps, Window: units.NewWindow(time.Unix(1, 0), time.Hour),
		SubFlows: []SubFlow{{ID: "a", Bandwidth: math.MaxInt64}, {ID: "b", Bandwidth: math.MaxInt64}}}.AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s EndpointSnapshot
		if err := s.DecodeBinary(data); err != nil {
			return
		}
		enc := s.AppendBinary(nil)
		var again EndpointSnapshot
		if err := again.DecodeBinary(enc); err != nil {
			t.Fatalf("the encoder's own snapshot does not decode: %v\n % x", err, enc)
		}
		if re := again.AppendBinary(nil); !bytes.Equal(re, enc) {
			t.Fatalf("decode then encode changed an encoded snapshot:\n in  % x\n out % x", enc, re)
		}
		ep, err := Restore(s)
		if err != nil {
			return
		}
		var sum units.Bandwidth
		ids := ep.SubFlows()
		for _, id := range ids {
			bw, ok := lookup(ep, id)
			if !ok || bw <= 0 || bw > ep.Aggregate-sum {
				t.Fatalf("restored sub-flow %q holds %v (listed %t) with %v of %v already held", id, bw, ok, sum, ep.Aggregate)
			}
			sum += bw
		}
		if ep.Used() != sum || ep.Len() != len(ids) || ep.Len() != len(s.SubFlows) || ep.Used() > ep.Aggregate {
			t.Fatalf("restored endpoint: used %v over %d sub-flows, which hold %v over %d (snapshot: %d); aggregate %v",
				ep.Used(), ep.Len(), sum, len(ids), len(s.SubFlows), ep.Aggregate)
		}
	})
}
