package bb

import (
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"e2eqos/internal/signalling"
	"e2eqos/internal/wire"
)

// TestGoldenCompArgVectors pins the bytes of the compensation argument
// in both of its uses: they sit inside saga.step records already on
// disk, which a rebuilt broker must still be able to pay.
func TestGoldenCompArgVectors(t *testing.T) {
	for _, g := range []struct {
		name string
		arg  compArg
		hex  string
	}{
		{"cancel", compArg{Peer: "/O=Grid/OU=DomainB/CN=bb-b", Key: "RAR-1~s2"},
			"0a1a2f4f3d477269642f4f553d446f6d61696e422f434e3d62622d62" + "12085241522d317e7332"},
		{"release", compArg{Key: "RAR-1", Handle: "net-DomainA-7"},
			"12055241522d31" + "1a0d6e65742d446f6d61696e412d37"},
	} {
		got := g.arg.AppendBinary(nil)
		if hex.EncodeToString(got) != g.hex {
			t.Errorf("%s: encoded %x\n        want %s", g.name, got, g.hex)
		}
		var back compArg
		if err := back.DecodeBinary(got); err != nil || back != g.arg {
			t.Errorf("%s: decoded %+v (%v), want %+v", g.name, back, err, g.arg)
		}
	}
}

// TestDecodeBrokerStateRefusesOtherFormats: a snapshot from before the
// binary codec or from a later version is named, for boot recovery and
// for a follower's snapshot install alike.
func TestDecodeBrokerStateRefusesOtherFormats(t *testing.T) {
	good := (&brokerState{Epoch: 3}).appendBinary(nil)
	if st, err := decodeBrokerState(good); err != nil || st.Epoch != 3 {
		t.Fatalf("own snapshot: %+v, %v", st, err)
	}
	for name, data := range map[string][]byte{
		"legacy JSON":    []byte(`{"table":{"name":"net-DomainA"},"epoch":3}`),
		"future version": {bbSnapMagic, wire.Version + 1, 0x28, 0x06},
		"empty":          nil,
	} {
		if _, err := decodeBrokerState(data); !errors.Is(err, wire.ErrUnsupportedFormat) {
			t.Errorf("%s: err = %v, want wire.ErrUnsupportedFormat", name, err)
		}
	}
}

// TestRecordedOutcomeIsAResult: a bb.rar or bb.tunnel_batch record whose
// outcome is not a result is refused by name. An outcome is decoded with
// no copy of its frame, which only a result, owning its signatures,
// allows: a reserve's envelope would alias the record.
func TestRecordedOutcomeIsAResult(t *testing.T) {
	reserve := &signalling.Message{Type: signalling.MsgReserve, Reserve: &signalling.ReservePayload{
		Mode: signalling.ModeEndToEnd, EnvelopeData: []byte{0xE5, 0x01, 0x0A},
	}}
	var rar rarRec
	if err := rar.DecodeBinary(rarRec{RARID: "RAR-1", Outcome: reserve}.AppendBinary(nil)); err == nil || !strings.Contains(err.Error(), "not a reserve message") {
		t.Errorf("bb.rar with a reserve for its outcome: err = %v", err)
	}
	var batch tunnelBatchRec
	if err := batch.DecodeBinary(tunnelBatchRec{RARID: "RAR-1", Outcome: reserve}.AppendBinary(nil)); err == nil || !strings.Contains(err.Error(), "not a reserve message") {
		t.Errorf("bb.tunnel_batch with a reserve for its outcome: err = %v", err)
	}
	var granted rarRec
	if err := granted.DecodeBinary(rarRec{RARID: "RAR-1", Outcome: signalling.OKResult("h-1")}.AppendBinary(nil)); err != nil || granted.Outcome.Result.Handle != "h-1" {
		t.Errorf("bb.rar with a result for its outcome: %+v, %v", granted.Outcome, err)
	}
}
