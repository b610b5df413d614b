package obs

import (
	"reflect"
	"testing"
)

// FuzzDecodeEvent: a flight-recorder event, which the recorder reads back
// from disk, never panics the decoder, and whatever decodes re-encodes to
// bytes that decode to an equal event.
func FuzzDecodeEvent(f *testing.F) {
	whole := sampleEvent(0).AppendBinary(nil)
	f.Add(whole)
	// Cut at every eighth of its length: a span torn somewhere.
	for i := 1; i < 8; i++ {
		f.Add(whole[:len(whole)*i/8])
	}
	sparse := &Event{TimeNS: 7, Kind: EventTunnelBatch, Domain: "D", Verdict: VerdictDenied, Reason: "no capacity", Ops: 64, DurationNS: 9}
	f.Add(sparse.AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Event
		if err := e.DecodeBinary(data); err != nil {
			return
		}
		enc := e.AppendBinary(nil)
		var again Event
		if err := again.DecodeBinary(enc); err != nil {
			t.Fatalf("the encoder's own event does not decode: %v\n % x", err, enc)
		}
		if !reflect.DeepEqual(&again, &e) {
			t.Fatalf("decode, encode, decode changed an event:\n first  %+v\n second %+v", &e, &again)
		}
	})
}
