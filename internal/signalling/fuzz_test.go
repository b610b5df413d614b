package signalling

import (
	"bytes"
	"reflect"
	"testing"

	"e2eqos/internal/wire"
)

// FuzzDecodeMessage ensures arbitrary wire bytes never panic the
// decoder, that it accepts no frame of a retired type, that it writes
// none of them (it decodes in place: a write
// would corrupt the frame for its owner), and that accepted messages
// re-encode to a frame the codec maps to itself — decode then encode
// returns every frame the encoder could have produced. A result keeps
// nothing of its frame: it re-encodes the same once the frame is
// zeroed. It holds its approvals as the bytes they came in, which decode
// (DecodeApprovals), and to the same approvals again once re-encoded.
// Batch payloads that decode must additionally never panic Validate,
// stay within MaxBatchOps, and get from Validate the verdict the
// map-based oracle gives them, whichever way it falls.
func FuzzDecodeMessage(f *testing.F) {
	batch := func(seq, acked int64, ops ...TunnelOp) []byte {
		return (&Message{Type: MsgTunnelBatch, ID: 4, TunnelBatch: &TunnelBatchPayload{
			TunnelRARID: "r", Seq: seq, Acked: acked, User: "/O=Grid/CN=alice", Ops: ops,
		}}).AppendBinary(nil)
	}
	seeds := [][]byte{
		// Batches Validate must judge: well-formed, duplicate sub-flow,
		// zero and negative bandwidth, unknown action, no ops; a seq and
		// low-water that pass, one acknowledging itself, one acknowledging
		// past itself, a negative seq and a negative low-water.
		batch(1, 0, TunnelOp{OpAlloc, "s1", 1000000}, TunnelOp{OpRelease, "s2", 0}),
		batch(2, 1, TunnelOp{OpAlloc, "dup", 1}, TunnelOp{OpRelease, "dup", 0}),
		batch(3, 1, TunnelOp{OpAlloc, "s", 0}),
		batch(4, 3, TunnelOp{OpAlloc, "s", -5}),
		batch(5, 0, TunnelOp{"flood", "s", 0}),
		batch(6, 5),
		batch(1_700_000_000_000_000_000, 1_699_999_999_999_999_999, TunnelOp{OpRelease, "s", 0}),
		batch(7, 7, TunnelOp{OpRelease, "s", 0}),
		batch(7, 9, TunnelOp{OpRelease, "s", 0}),
		batch(-7, 0, TunnelOp{OpRelease, "s", 0}),
		batch(7, -1, TunnelOp{OpRelease, "s", 0}),
		// One op past MaxBatchOps: refused while counting.
		append(batch(8, 7), emptyOpFields(MaxBatchOps+1)...),
		// A follower's resync: a snapshot and the records that extend it
		// in one frame, which no golden vector carries together.
		(&Message{Type: MsgJournalStream, ID: 14, JournalStream: &JournalStreamPayload{
			Domain: "DomainA", Term: 5, LeaderID: 1, FromSeq: 5, CommitSeq: 6,
			Snapshot: []byte{0xB3, 0x01, 0x0A}, SnapSeq: 5, Records: [][]byte{{0xB1, 0x01, 0x07}, {0xB1, 0x01}},
		}}).AppendBinary(nil),
		// Not frames at all: the decoder has one encoding and must refuse
		// everything else, a JSON body included.
		[]byte(`{"type":"cancel","id":2,"cancel":{"rar_id":"RAR-1"}}`),
		[]byte("\x00\x01\x02"),
		[]byte(``),
	}
	// Results whose approvals a first pass must find: an unknown field
	// between two approvals, a field 4 of the varint wire type, a last
	// approval cut short, and a well-framed approval torn inside, which
	// must be refused, not relayed.
	approval := func(domain string) []byte {
		a := DomainApproval{Domain: domain, BBDN: "/O=Grid/CN=bb", RARID: "RAR-1", Granted: true, Signature: []byte{0xDE, 0xAD}}
		buf, start := wire.BeginNested(nil, 4)
		return wire.EndNested(a.appendFields(buf), start)
	}
	result := func(fields ...[]byte) []byte {
		return bytes.Join(append([][]byte{{BinMagic, BinVersion, typeCode(MsgResult), 7}}, fields...), nil)
	}
	// A grant statement: the destination's signed claim, then the
	// unsigned claims it covers, with no RAR id of their own.
	claim := func(domain string) []byte {
		a := DomainApproval{Domain: domain, BBDN: "/O=Grid/CN=bb", Handle: domain + "-1", Granted: true}
		buf, start := wire.BeginNested(nil, 4)
		return wire.EndNested(a.appendFields(buf), start)
	}
	seeds = append(seeds,
		result(approval("A"), []byte{0x78, 0x01}, approval("B")),
		result(approval("A"), []byte{0x20, 0x05}, approval("B")),
		result(approval("A"), approval("B")[:20]),
		result([]byte{0x08, 0x01}, approval("C"), claim("B"), claim("A")),
		result(approval("A"), []byte{0x22, 0x03, 0x0a, 0x05, 'B'}),
		result(approval("A"), []byte{0x22, 0x02, 0x28, 0x80}),
	)
	// Approvals that other fields of the result separate: a reason, a
	// policy attribute and a trace id between the claims of a grant.
	seeds = append(seeds,
		result([]byte{0x08, 0x01}, claim("C"), []byte{0x12, 0x01, 'r'}, claim("B"), []byte{0x2a, 0x04, 0x01, 'k', 0x01, 'v'}, claim("A")),
		result(approval("A"), []byte{0x32, 0x02, 'T', '1'}, approval("B"), []byte{0x1a, 0x01, 'h'}),
	)
	// Each golden frame and each frame of a retired type (which must
	// fail), plus the malformed shapes the decoder must classify without
	// panicking — torn varints, unknown fields, truncated frames, wrong
	// wire types on known tags, and frames from the future.
	frames := retiredFrames()
	for _, g := range goldenMessages() {
		frames = append(frames, g.msg.AppendBinary(nil))
	}
	for _, frame := range frames {
		seeds = append(seeds,
			frame,
			frame[:len(frame)-1], // truncated tail
			frame[:3],            // header only, ID missing
			append(frame[:len(frame):len(frame)], 0x80),       // torn trailing varint
			append(frame[:len(frame):len(frame)], 0x78, 0x01), // a field this decoder has never heard of
		)
	}
	seeds = append(seeds,
		[]byte{BinMagic},                                  // magic alone
		[]byte{BinMagic, BinVersion},                      // no type code
		[]byte{BinMagic, 99, 2, 0},                        // future version
		[]byte{BinMagic, BinVersion, 0, 0},                // type code 0
		[]byte{BinMagic, BinVersion, 200, 0},              // unknown type code
		[]byte{BinMagic, BinVersion, 2, 0x80, 0x80, 0x80}, // torn ID varint
		[]byte{BinMagic, BinVersion, 2, 1, 0x0a, 0xff},    // bytes length past end
		[]byte{BinMagic, BinVersion, 2, 1, 0x08, 0x01},    // tag collision: field 1 as varint
		[]byte{BinMagic, BinVersion, 6, 1, 0x0d, 0x00},    // unsupported wire type 5
	)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		input := bytes.Clone(data)
		msg, err := DecodeMessage(data)
		if !bytes.Equal(data, input) {
			t.Fatalf("decoding wrote to its input:\n before % x\n after  % x", input, data)
		}
		// A reader's kept message, still holding the payloads of earlier
		// frames, decodes a frame exactly as a fresh one does.
		kept := request{
			Message: Message{
				Result:        &ResultPayload{Granted: true, Reason: "earlier", AckSeq: 3, Approvals: []DomainApproval{{Domain: "D"}}},
				JournalStream: &JournalStreamPayload{Kind: StreamVote, Domain: "Earlier", Term: 9, Snapshot: []byte{1}, Records: [][]byte{{2}, {3}}},
			},
			kept: payloads{
				reserve: ReservePayload{Mode: "earlier", TraceID: "t", Sampled: true, EnvelopeData: []byte{4}, PathPin: []string{"A", "B"}, Attempt: 1, SplitPart: 1, SplitOf: 2, SplitBW: 5},
				cancel:  CancelPayload{RARID: "earlier"},
				batch:   TunnelBatchPayload{TunnelRARID: "earlier", Seq: 2, Acked: 1, User: "/CN=u", Ops: []TunnelOp{{Action: OpAlloc, SubFlowID: "e", Bandwidth: 1}}, TraceID: "t", Sampled: true},
				status:  StatusPayload{RARID: "earlier"},
			},
		}
		if keptErr := kept.decodeFrame(data, "", &kept.kept); (keptErr == nil) != (err == nil) {
			t.Fatalf("a kept message decodes with error %v, a fresh one with %v", keptErr, err)
		}
		if err != nil {
			return
		}
		if got, want := kept.AppendBinary(nil), msg.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Fatalf("a kept message decoded another message:\n kept  % x\n fresh % x", got, want)
		}
		if data[2] == 3 || data[2] == 4 { // a decoded frame has its three header bytes
			t.Fatalf("decoder accepted a frame of retired type code %d: %+v", data[2], msg)
		}
		if msg.Type == "" {
			t.Fatal("decoder accepted a typeless message")
		}
		enc, err := msg.Encode()
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		again, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("the encoder's own frame does not decode: %v\n % x", err, enc)
		}
		if re, _ := again.Encode(); !bytes.Equal(re, enc) {
			t.Fatalf("decode then encode changed an encoded frame:\n in  % x\n out % x", enc, re)
		}
		if r := msg.Result; r != nil {
			if len(r.Approvals) > 0 {
				t.Fatalf("a result decoded %d approvals, want them left in its stack", len(r.Approvals))
			}
			approvals, err := r.DecodedApprovals()
			if err != nil {
				t.Fatalf("a result decoded with a stack that does not: %v\n % x", err, r.Stack)
			}
			reapprovals, err := again.Result.DecodedApprovals()
			if err != nil || !reflect.DeepEqual(reapprovals, approvals) {
				t.Fatalf("re-encoded approvals decode to\n %+v (err %v)\nwant\n %+v", reapprovals, err, approvals)
			}
			frame := bytes.Clone(data)
			owned, err := DecodeMessage(frame)
			if err != nil {
				t.Fatal(err)
			}
			clear(frame)
			if re := owned.AppendBinary(nil); !bytes.Equal(re, enc) {
				t.Fatalf("a result changed when its frame was zeroed:\n before % x\n after  % x", enc, re)
			}
		}
		if b := msg.TunnelBatch; b != nil {
			if len(b.Ops) > MaxBatchOps {
				t.Fatalf("decoder accepted a batch of %d ops", len(b.Ops))
			}
			sameVerdict(t, b)
		}
	})
}
