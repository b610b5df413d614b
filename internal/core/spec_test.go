package core

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"e2eqos/internal/policy"
	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// goldenSpec has every field set, the map with two keys so the sorted
// order shows.
func goldenSpec() *Spec {
	start := time.Date(2001, 8, 7, 9, 0, 0, 500, time.UTC)
	return &Spec{
		RARID:         "RAR-1",
		User:          "/O=Grid/CN=alice",
		SrcHost:       "hostA.",
		DstHost:       "hostC.",
		SourceDomain:  "DomainA",
		DestDomain:    "DomainC",
		Bandwidth:     10 * units.Mbps,
		Window:        units.Window{Start: start, End: start.Add(time.Hour)},
		Tunnel:        true,
		CostLimit:     "12.50",
		Assertions:    []string{"ATLAS experiment", "physicist"},
		LinkedHandles: map[string]string{"disk": "disk-c-3", "cpu": "cpu-c-17"},
	}
}

// TestGoldenSpecVector pins the bytes a user signs: a codec change that
// moves one invalidates every RAR in flight and every recorded chain.
func TestGoldenSpecVector(t *testing.T) {
	const want = "e601" +
		"0a055241522d31" +
		"12102f4f3d477269642f434e3d616c696365" +
		"1a06686f7374412e" +
		"2206686f7374432e" +
		"2a07446f6d61696e41" +
		"3207446f6d61696e43" +
		"3880dac409" +
		"4207a0b8fdb607f403" +
		"4a07c0f0fdb607f403" +
		"5001" +
		"5a0531322e3530" +
		"621041544c4153206578706572696d656e74" +
		"6209706879736963697374" +
		"6a0d03637075086370752d632d3137" +
		"6a0e046469736b086469736b2d632d33"
	got := goldenSpec().AppendBinary(nil)
	if hex.EncodeToString(got) != want {
		t.Fatalf("encoded %x\n   want %s", got, want)
	}
	back, err := DecodeSpec(got)
	if err != nil || !reflect.DeepEqual(back, goldenSpec()) {
		t.Fatalf("decoded %+v (%v)\n   want %+v", back, err, goldenSpec())
	}
}

// TestDecodeSpecRefusesOtherFormats: the JSON spec of the builds before
// this codec, and a version from the future, are named, not guessed at.
func TestDecodeSpecRefusesOtherFormats(t *testing.T) {
	future := goldenSpec().AppendBinary(nil)
	future[1]++
	for name, data := range map[string][]byte{
		"legacy JSON":    []byte(`{"rar_id":"RAR-1","user":"/O=Grid/CN=alice","bandwidth":10000000}`),
		"future version": future,
		"empty":          nil,
	} {
		if _, err := DecodeSpec(data); !errors.Is(err, wire.ErrUnsupportedFormat) {
			t.Errorf("%s: err = %v, want wire.ErrUnsupportedFormat", name, err)
		}
	}
}

// TestSpecWindowIsAnInstant: the same start written in two UTC offsets
// is one request — the same signed bytes, the same window at every hop,
// and so the same verdict from a time-of-day rule. (The JSON spec kept
// the user's offset, and the rule read the hour in it.)
func TestSpecWindowIsAnInstant(t *testing.T) {
	night := time.Date(2001, 8, 7, 22, 0, 0, 0, time.UTC) // 08:00 the next day at +10:00
	pol := policy.MustParse("office-hours", "allow if time within 08:00..18:00\ndeny\n")
	var encoded [][]byte
	for _, zone := range []*time.Location{time.UTC, time.FixedZone("+10:00", 10*3600)} {
		s := goldenSpec()
		s.Window = units.NewWindow(night.In(zone), time.Hour)
		raw := s.AppendBinary(nil)
		encoded = append(encoded, raw)
		hop, err := DecodeSpec(raw)
		if err != nil {
			t.Fatal(err)
		}
		if hop.Window.Start.Location() != time.UTC || !hop.Window.Start.Equal(night) {
			t.Errorf("%s: a hop reads start %v, want %v in UTC", zone, hop.Window.Start, night)
		}
		if pol.Evaluate(&policy.Request{Time: hop.Window.Start}).Granted() {
			t.Errorf("%s: 22:00 UTC got inside 08:00..18:00", zone)
		}
	}
	if !reflect.DeepEqual(encoded[0], encoded[1]) {
		t.Errorf("one instant, two encodings:\n%x\n%x", encoded[0], encoded[1])
	}
}

// FuzzDecodeSpec: arbitrary bytes never panic the decoder, and a spec
// that decodes re-encodes to bytes that decode to the same spec.
func FuzzDecodeSpec(f *testing.F) {
	golden := goldenSpec().AppendBinary(nil)
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	f.Add(golden[:2])
	f.Add([]byte{specMagic, wire.Version, 0x6a, 0x03, 0x05, 'a'})  // map key runs past its pair
	f.Add([]byte{specMagic, wire.Version, 0x42, 0x02, 0x80, 0x80}) // torn time
	f.Add([]byte(`{"rar_id":"RAR-1"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		again, err := DecodeSpec(s.AppendBinary(nil))
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("spec %+v re-decoded as %+v (%v)", s, again, err)
		}
	})
}
