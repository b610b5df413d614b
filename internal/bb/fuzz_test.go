package bb

import (
	"bytes"
	"testing"
	"time"

	"e2eqos/internal/resv"
	"e2eqos/internal/saga"
	"e2eqos/internal/signalling"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// seedBrokerState is a snapshot with one of everything a broker rotates:
// an admitted reservation, a single-leg and a split route entry with
// their outcomes, a tunnel endpoint holding sub-flows, one sender's
// replay window holding two settled batches above its low-water and
// another's holding none above its, and an open saga — each section
// written by the encoder of the package that owns it.
func seedBrokerState(tb testing.TB) []byte {
	tb.Helper()
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	window := units.NewWindow(time.Unix(1_700_000_000, 0), time.Hour)
	table, err := resv.NewTable("net-DomainA", 100*units.Mbps)
	must(err)
	_, err = table.Admit(resv.AdmitRequest{User: "/O=Grid/CN=alice", SrcHost: "a", DstHost: "b", Bandwidth: units.Mbps, Window: window})
	must(err)
	tableSnap, err := table.Snapshot()
	must(err)
	ep, err := tunnel.NewEndpoint("RAR-T", 50*units.Mbps, window, "/O=Grid/OU=DomainB/CN=bb-b", "/O=Grid/CN=alice")
	must(err)
	ep.Epoch = 3
	for _, id := range []string{"sf-1", "sf-2"} {
		_, err = ep.Allocate(id, units.Mbps)
		must(err)
	}
	sagas := saga.New(saga.Options{})
	defer sagas.Close()
	sagas.Did("RAR-2", "cancel", compArg{Peer: "/O=Grid/OU=DomainB/CN=bb-b", Key: "RAR-2~s1"}.AppendBinary(nil))
	granted := &signalling.Message{Type: signalling.MsgResult, ID: 7, Result: &signalling.ResultPayload{
		Granted: true, Handle: "net-DomainA-1",
		Approvals: []signalling.DomainApproval{{Domain: "DomainA", BBDN: "/O=Grid/OU=DomainA/CN=bb-a", RARID: "RAR-1", Granted: true, Signature: []byte{0xDE, 0xAD}}},
	}}
	denied := &signalling.Message{Type: signalling.MsgResult, Result: &signalling.ResultPayload{
		Reason:       "DomainA: 1/2 ops denied",
		BatchResults: []signalling.TunnelOpResult{{SubFlowID: "sf-1", Granted: true}, {SubFlowID: "sf-9", Reason: "tunnel full"}},
	}}
	st := brokerState{
		Table: tableSnap,
		RARs: []rarRec{
			{RARID: "RAR-1", Epoch: 1, Outcome: granted, route: route{Handle: "net-DomainA-1", SourceBB: "/O=Grid/CN=alice",
				Legs: []childRoute{{Next: "/O=Grid/OU=DomainB/CN=bb-b", Key: "RAR-1~a1"}}}},
			{RARID: "RAR-2", Epoch: 2, Outcome: granted, route: route{Handle: "net-DomainA-2", SourceBB: "/O=Grid/CN=alice", Legs: []childRoute{
				{Next: "/O=Grid/OU=DomainB/CN=bb-b", Key: "RAR-2~s1", BW: 600_000},
				{Next: "/O=Grid/OU=DomainC/CN=bb-c", Key: "RAR-2~s2", BW: 400_000},
			}}},
			{RARID: "RAR-T", Epoch: 3, Outcome: granted, route: route{Handle: "net-DomainA-3", Tunnel: true}},
		},
		Tunnels: []tunnel.EndpointSnapshot{ep.Snapshot()},
		TunnelBatches: []tunnelBatchRec{
			{RARID: "RAR-T", Epoch: 3, Sender: "/O=Grid/OU=DomainB/CN=bb-b", Seq: 41, Low: 40, Sum: 0x9e3779b97f4a7c15, Outcome: denied},
			{RARID: "RAR-T", Epoch: 3, Sender: "/O=Grid/OU=DomainB/CN=bb-b", Seq: 43, Low: 40, Sum: 7, Outcome: granted},
			{RARID: "RAR-T", Epoch: 3, Sender: "/O=Grid/CN=alice", Low: 7},
		},
		Sagas: sagas.Snapshot(),
		Epoch: 3,
	}
	return st.appendBinary(nil)
}

// FuzzDecodeBrokerState: the decoder of the rotated snapshot, which boot
// recovery reads from disk and a follower from its leader, never panics,
// and what it accepts is a fixed point of decode-then-encode: a state
// that recovery installs is rotated again as the same bytes.
func FuzzDecodeBrokerState(f *testing.F) {
	whole := seedBrokerState(f)
	f.Add(whole)
	// Cut at every eighth of its length: each section torn somewhere.
	for i := 1; i < 8; i++ {
		f.Add(whole[:len(whole)*i/8])
	}
	f.Add((&brokerState{Epoch: 3}).appendBinary(nil))
	f.Add([]byte{bbSnapMagic, wire.Version})
	f.Add([]byte{bbSnapMagic, wire.Version, 0x12, 0xff})        // a route entry longer than the snapshot
	f.Add([]byte{bbSnapMagic, wire.Version, 0x12, 0x02, 0x3a})  // a route entry with a torn outcome
	f.Add([]byte{bbSnapMagic, wire.Version + 1, 0x28, 0x06})    // a later version
	f.Add([]byte(`{"table":{"name":"net-DomainA"},"epoch":3}`)) // a snapshot from before the binary codec
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeBrokerState(data)
		if err != nil {
			return
		}
		enc := st.appendBinary(nil)
		again, err := decodeBrokerState(enc)
		if err != nil {
			t.Fatalf("the encoder's own snapshot does not decode: %v\n % x", err, enc)
		}
		if re := again.appendBinary(nil); !bytes.Equal(re, enc) {
			t.Fatalf("decode then encode changed an encoded snapshot:\n in  % x\n out % x", enc, re)
		}
	})
}

// TestSeedBrokerStateHoldsEverySection keeps the fuzz seed honest: it
// decodes, and no section of it is empty.
func TestSeedBrokerStateHoldsEverySection(t *testing.T) {
	st, err := decodeBrokerState(seedBrokerState(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Table) == 0 || len(st.RARs) != 3 || len(st.RARs[0].Legs) != 1 || len(st.RARs[1].Legs) != 2 ||
		len(st.Tunnels) != 1 || len(st.Tunnels[0].SubFlows) != 2 || len(st.TunnelBatches) != 3 || st.TunnelBatches[0].Low != 40 || st.TunnelBatches[0].Sum != 0x9e3779b97f4a7c15 ||
		st.TunnelBatches[0].Outcome == nil || len(st.Sagas) == 0 || st.Epoch != 3 {
		t.Errorf("seed snapshot decoded to %+v", st)
	}
}
