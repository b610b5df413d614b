package signalling

import (
	"fmt"
	"strings"
	"sync"

	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/wire"
)

// Frame layout (DESIGN.md §6.6):
//
//	byte 0   BinMagic (0xE2)
//	byte 1   BinVersion
//	byte 2   message type code (see typeCode)
//	uvarint  message ID
//	fields   the single payload struct for the type, tag-encoded
//
// Fields use the wire package's tag scheme; zero-valued fields are
// omitted and unknown tags are skipped, so growth stays additive.
const (
	// BinMagic is the first byte of every binary signalling frame.
	BinMagic = 0xE2
	// BinVersion is the current frame version; decoders reject frames
	// from the future rather than misparse them.
	BinVersion = 1
)

// typeCode maps MsgType to its single-byte wire code and back. Codes
// are part of the wire format: never renumber, only append. 3 and 4
// were the single-op tunnel-alloc and tunnel-release, retired for a
// MsgTunnelBatch of one op: they stay reserved and are refused by name.
var typeCodes = [...]MsgType{
	1: MsgReserve,
	2: MsgCancel,
	5: MsgTunnelBatch,
	6: MsgStatus,
	7: MsgResult,
	8: MsgJournalStream,
}

func typeCode(t MsgType) byte {
	for c, mt := range typeCodes {
		if mt == t {
			return byte(c)
		}
	}
	return 0
}

// AppendBinary appends the canonical binary frame for m. Encoding is
// infallible by construction (every field type has a total encoding),
// which is what lets the hot path run without error plumbing.
func (m *Message) AppendBinary(buf []byte) []byte { return m.appendFrame(buf, m.ID) }

// appendFrame is AppendBinary under an ID other than m's own: the RPC
// layer numbers a frame without copying or writing to a message that
// other calls may share.
func (m *Message) appendFrame(buf []byte, id uint64) []byte {
	buf = append(buf, BinMagic, BinVersion, typeCode(m.Type))
	buf = wire.AppendUvarint(buf, id)
	switch {
	case m.Reserve != nil:
		buf = m.Reserve.appendFields(buf)
	case m.Cancel != nil:
		buf = wire.AppendString(buf, 1, m.Cancel.RARID)
	case m.TunnelBatch != nil:
		buf = m.TunnelBatch.appendFields(buf)
	case m.Status != nil:
		buf = wire.AppendString(buf, 1, m.Status.RARID)
	case m.Result != nil:
		buf = m.Result.appendFields(buf)
	case m.JournalStream != nil:
		buf = m.JournalStream.appendFields(buf)
	}
	return buf
}

// decodeFrame parses one frame into m. text, when set, holds the
// frame's bytes as a string, and the message's strings are cut from it
// (DecodeMessageIn). A result or journal-stream payload already
// attached to m is decoded into again rather than replaced: the RPC
// readers keep one message for the stream messages a server handles in
// order, and one for the Post answers a client's callbacks are done
// with before the next read. A request is decoded into kept's payload
// of its type (a served request, serveConn), or into a new set of
// payloads when kept is nil.
func (m *Message) decodeFrame(data []byte, text string, kept *payloads) error {
	if len(data) < 3 || data[0] != BinMagic {
		return fmt.Errorf("signalling: not a signalling frame (%d bytes, want leading %#x)", len(data), BinMagic)
	}
	if data[1] != BinVersion {
		return fmt.Errorf("signalling: unsupported frame version %d", data[1])
	}
	code := data[2]
	if int(code) >= len(typeCodes) || code == 0 {
		return fmt.Errorf("signalling: unknown message type code %d", code)
	}
	if typeCodes[code] == "" {
		return fmt.Errorf("signalling: message type code %d is retired: a single sub-flow op travels as a tunnel-batch of one", code)
	}
	result, stream := m.Result, m.JournalStream
	*m = Message{Type: typeCodes[code]}
	d := &wire.Dec{Buf: data[3:]}
	if text != "" {
		d.Text = text[3:]
	}
	m.ID = d.Uvarint()
	var err error
	switch m.Type {
	case MsgResult:
		if result == nil {
			result = &ResultPayload{}
		} else {
			*result = ResultPayload{}
		}
		err = result.decodeFields(d)
		m.Result = result
	case MsgJournalStream:
		if stream == nil {
			stream = &JournalStreamPayload{}
		}
		err = stream.decodeFields(d)
		m.JournalStream = stream
	default: // a request
		if kept == nil {
			kept = new(payloads)
		} else {
			kept.reset()
		}
		switch m.Type {
		case MsgReserve:
			m.Reserve, err = &kept.reserve, kept.reserve.decodeFields(d)
		case MsgCancel:
			m.Cancel, err = &kept.cancel, decodeRARIDFields(d, &kept.cancel.RARID)
		case MsgTunnelBatch:
			m.TunnelBatch, err = &kept.batch, kept.batch.decodeFields(d)
		case MsgStatus:
			m.Status, err = &kept.status, decodeRARIDFields(d, &kept.status.RARID)
		}
	}
	if err != nil {
		return fmt.Errorf("signalling: decode %s: %w", m.Type, err)
	}
	return nil
}

// maxKeptOps bounds the Ops (and PathPin) array a kept request payload
// holds on to between requests. MaxBatchOps is 65 536, so an array sized
// by the largest batch a peer chose to send would pin 2.5 MiB per kept
// message; one over this bound is dropped, and the next batch that size
// makes its own.
const maxKeptOps = 1024

// payloads is one payload of each request type, for a message the
// server keeps between the requests it decodes into it (serveConn).
type payloads struct {
	reserve ReservePayload
	cancel  CancelPayload
	batch   TunnelBatchPayload
	status  StatusPayload
}

// reset drops everything the last request decoded into k holds — of its
// frame, of its strings — so a kept message pins nothing while it waits.
// Only the PathPin and Ops arrays stay, cleared and emptied, and only up
// to maxKeptOps entries; a decode appends into them.
func (k *payloads) reset() {
	pins, ops := k.reserve.PathPin, k.batch.Ops
	clear(pins)
	clear(ops)
	if cap(pins) > maxKeptOps {
		pins = nil
	}
	if cap(ops) > maxKeptOps {
		ops = nil
	}
	*k = payloads{reserve: ReservePayload{PathPin: pins[:0]}, batch: TunnelBatchPayload{Ops: ops[:0]}}
}

// skipUnknown handles a tag no decoder claimed.
func skipUnknown(d *wire.Dec, wt byte) { d.Skip(wt) }

// decodeRARIDFields decodes the single-string payloads (cancel,
// status): field 1 = rar id.
func decodeRARIDFields(d *wire.Dec, rarID *string) error {
	for d.More() {
		f, wt := d.Tag()
		if f == 1 && wt == wire.TBytes {
			*rarID = d.String()
		} else {
			skipUnknown(d, wt)
		}
	}
	return d.Err()
}

// ReservePayload: 1=mode 2=trace_id 3=envelope 4=sampled
// 5=path_pin (repeated) 6=attempt 7=split_part 8=split_of 9=split_bw.
func (p *ReservePayload) appendFields(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, string(p.Mode))
	buf = wire.AppendString(buf, 2, p.TraceID)
	if p.env != nil {
		buf = p.env.AppendField(buf, 3)
	} else {
		buf = wire.AppendBytes(buf, 3, p.EnvelopeData)
	}
	buf = wire.AppendBool(buf, 4, p.Sampled)
	for _, hop := range p.PathPin {
		buf = wire.AppendBytes(buf, 5, []byte(hop))
	}
	buf = wire.AppendInt(buf, 6, int64(p.Attempt))
	buf = wire.AppendInt(buf, 7, int64(p.SplitPart))
	buf = wire.AppendInt(buf, 8, int64(p.SplitOf))
	buf = wire.AppendInt(buf, 9, p.SplitBW)
	return buf
}

// decodeFields leaves the envelope where the frame has it: EnvelopeData
// is a sub-slice of d.Buf (DESIGN.md §6.6, "Who owns a frame").
func (p *ReservePayload) decodeFields(d *wire.Dec) error {
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			p.Mode = ReserveMode(d.String())
		case f == 2 && wt == wire.TBytes:
			p.TraceID = d.String()
		case f == 3 && wt == wire.TBytes:
			p.EnvelopeData = d.Bytes()
		case f == 4 && wt == wire.TVarint:
			p.Sampled = d.Bool()
		case f == 5 && wt == wire.TBytes:
			p.PathPin = append(p.PathPin, d.String())
		case f == 6 && wt == wire.TVarint:
			p.Attempt = int(d.Varint())
		case f == 7 && wt == wire.TVarint:
			p.SplitPart = int(d.Varint())
		case f == 8 && wt == wire.TVarint:
			p.SplitOf = int(d.Varint())
		case f == 9 && wt == wire.TVarint:
			p.SplitBW = d.Varint()
		default:
			skipUnknown(d, wt)
		}
	}
	return d.Err()
}

// Batch op action codes.
const (
	opCodeAlloc   = 1
	opCodeRelease = 2
)

// TunnelOp: 1=action(code) 2=sub_flow_id 3=bandwidth. Ops dominate
// batch frames, so their encoding is the hottest in the codec.
func (op *TunnelOp) appendFields(buf []byte) []byte {
	switch op.Action {
	case OpAlloc:
		buf = wire.AppendUint(buf, 1, opCodeAlloc)
	case OpRelease:
		buf = wire.AppendUint(buf, 1, opCodeRelease)
	default:
		// Unknown actions encode as the literal string in field 4 so
		// Validate still sees (and rejects) them after a round trip.
		buf = wire.AppendString(buf, 4, string(op.Action))
	}
	buf = wire.AppendString(buf, 2, op.SubFlowID)
	buf = wire.AppendInt(buf, 3, op.Bandwidth)
	return buf
}

func (op *TunnelOp) decodeFields(d *wire.Dec) error {
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TVarint:
			switch d.Uvarint() {
			case opCodeAlloc:
				op.Action = OpAlloc
			case opCodeRelease:
				op.Action = OpRelease
			}
		case f == 2 && wt == wire.TBytes:
			op.SubFlowID = d.String()
		case f == 3 && wt == wire.TVarint:
			op.Bandwidth = d.Varint()
		case f == 4 && wt == wire.TBytes:
			// A copy of its own: only SubFlowID may alias the frame text.
			op.Action = TunnelOpAction(d.Bytes())
		default:
			skipUnknown(d, wt)
		}
	}
	return d.Err()
}

// TunnelBatchPayload: 1=tunnel_rar_id 3=user 4=ops(repeated) 5=trace_id
// 6=sampled 7=seq 8=acked. Field 2 was the batch id, retired for the
// sender's sequence: a frame carrying it is refused by name.
func (p *TunnelBatchPayload) appendFields(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, p.TunnelRARID)
	buf = wire.AppendString(buf, 3, string(p.User))
	for i := range p.Ops {
		var start int
		buf, start = wire.BeginNested(buf, 4)
		buf = p.Ops[i].appendFields(buf)
		buf = wire.EndNested(buf, start)
	}
	buf = wire.AppendString(buf, 5, p.TraceID)
	buf = wire.AppendBool(buf, 6, p.Sampled)
	buf = wire.AppendInt(buf, 7, p.Seq)
	return wire.AppendInt(buf, 8, p.Acked)
}

// decodeFields allocates per frame, not per op: a first pass counts the
// op fields (and refuses a count past MaxBatchOps before anything is
// made), Ops is made once, or not at all when the empty Ops of a kept
// payload has room, and every op's SubFlowID is a substring of one
// string made from the frame. Those ids therefore pin the frame's
// text for as long as they live: whoever keeps one past the request
// clones it (DESIGN.md §6.5). The payload's own strings stay copies.
func (p *TunnelBatchPayload) decodeFields(d *wire.Dec) error {
	n := 0
	for c := *d; c.More(); {
		f, wt := c.Tag()
		if f == 4 && wt == wire.TBytes {
			if n++; n > MaxBatchOps {
				return errBatchTooLarge
			}
		}
		c.Skip(wt)
	}
	var text string
	if n > 0 {
		text = string(d.Buf)
		if cap(p.Ops) < n {
			p.Ops = make([]TunnelOp, 0, n)
		}
	}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			p.TunnelRARID = d.String()
		case f == 2 && wt == wire.TBytes:
			return errBatchID
		case f == 3 && wt == wire.TBytes:
			p.User = identity.DN(d.String())
		case f == 4 && wt == wire.TBytes:
			sub := d.NestedIn(text)
			p.Ops = append(p.Ops, TunnelOp{})
			if err := p.Ops[len(p.Ops)-1].decodeFields(&sub); err != nil {
				return err
			}
		case f == 5 && wt == wire.TBytes:
			p.TraceID = d.String()
		case f == 6 && wt == wire.TVarint:
			p.Sampled = d.Bool()
		case f == 7 && wt == wire.TVarint:
			p.Seq = d.Varint()
		case f == 8 && wt == wire.TVarint:
			p.Acked = d.Varint()
		default:
			skipUnknown(d, wt)
		}
	}
	return d.Err()
}

var errBatchID = fmt.Errorf("signalling: the batch id (field 2) is retired: a batch is numbered by its sender's seq")

// TunnelOpResult: 1=sub_flow_id 2=granted 3=reason.
func (r *TunnelOpResult) appendFields(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, r.SubFlowID)
	buf = wire.AppendBool(buf, 2, r.Granted)
	buf = wire.AppendString(buf, 3, r.Reason)
	return buf
}

func (r *TunnelOpResult) decodeFields(d *wire.Dec) error {
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			r.SubFlowID = d.String()
		case f == 2 && wt == wire.TVarint:
			r.Granted = d.Bool()
		case f == 3 && wt == wire.TBytes:
			r.Reason = d.String()
		default:
			skipUnknown(d, wt)
		}
	}
	return d.Err()
}

// DomainApproval: 1=domain 2=bb_dn 3=rar_id 4=handle 5=granted
// 6=reason 7=signature. appendCore (fields 1-6) doubles as the
// canonical signing payload — see approvalPayload in messages.go.
func (a *DomainApproval) appendCore(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, a.Domain)
	buf = wire.AppendString(buf, 2, string(a.BBDN))
	buf = wire.AppendString(buf, 3, a.RARID)
	buf = wire.AppendString(buf, 4, a.Handle)
	buf = wire.AppendBool(buf, 5, a.Granted)
	buf = wire.AppendString(buf, 6, a.Reason)
	return buf
}

func (a *DomainApproval) appendFields(buf []byte) []byte {
	buf = a.appendCore(buf)
	buf = wire.AppendBytes(buf, 7, a.Signature)
	return buf
}

// decodeFields decodes in place: Signature is a sub-slice of d.Buf, and
// the strings are substrings of d.Text when the decoder has one.
func (a *DomainApproval) decodeFields(d *wire.Dec) error {
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			a.Domain = d.String()
		case f == 2 && wt == wire.TBytes:
			a.BBDN = identity.DN(d.String())
		case f == 3 && wt == wire.TBytes:
			a.RARID = d.String()
		case f == 4 && wt == wire.TBytes:
			a.Handle = d.String()
		case f == 5 && wt == wire.TVarint:
			a.Granted = d.Bool()
		case f == 6 && wt == wire.TBytes:
			a.Reason = d.String()
		case f == 7 && wt == wire.TBytes:
			a.Signature = d.Bytes()
		default:
			skipUnknown(d, wt)
		}
	}
	return d.Err()
}

// JournalStreamPayload: 1=domain 2=term 3=leader_id 4=from_seq
// 5=commit_seq 6=snapshot 7=snap_seq 8=records(repeated) 9=kind.
func (p *JournalStreamPayload) appendFields(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, p.Domain)
	buf = wire.AppendInt(buf, 2, p.Term)
	buf = wire.AppendInt(buf, 3, int64(p.LeaderID))
	buf = wire.AppendInt(buf, 4, p.FromSeq)
	buf = wire.AppendInt(buf, 5, p.CommitSeq)
	buf = wire.AppendBytes(buf, 6, p.Snapshot)
	buf = wire.AppendInt(buf, 7, p.SnapSeq)
	for _, rec := range p.Records {
		// The journal never frames a zero-byte record, so AppendBytes
		// omitting empties loses nothing here.
		buf = wire.AppendBytes(buf, 8, rec)
	}
	buf = wire.AppendInt(buf, 9, int64(p.Kind))
	return buf
}

// decodeFields decodes in place (DESIGN.md §6.6, "Who owns a frame"):
// Snapshot and every record are sub-slices of d.Buf. A follower copies
// what it keeps of a record as it applies it, and AppendFrame copies the
// frame into the WAL buffer, so nothing outlives the message. A first
// pass counts the records, so Records is sized once. Decoding into a
// payload decoded before reuses its Records array and, while the domain
// stays the same, its Domain string: a server decodes every stream
// message of a connection into one payload, and allocates nothing for
// either.
func (p *JournalStreamPayload) decodeFields(d *wire.Dec) error {
	n := 0
	for scan := *d; scan.More(); {
		f, wt := scan.Tag()
		if f == 8 && wt == wire.TBytes {
			n++
		}
		scan.Skip(wt)
	}
	records := p.Records[:0]
	if cap(records) < n {
		records = make([][]byte, 0, n)
	}
	*p = JournalStreamPayload{Domain: p.Domain, Records: records}
	var domain []byte
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			domain = d.Bytes()
		case f == 2 && wt == wire.TVarint:
			p.Term = d.Varint()
		case f == 3 && wt == wire.TVarint:
			p.LeaderID = int(d.Varint())
		case f == 4 && wt == wire.TVarint:
			p.FromSeq = d.Varint()
		case f == 5 && wt == wire.TVarint:
			p.CommitSeq = d.Varint()
		case f == 6 && wt == wire.TBytes:
			p.Snapshot = d.Bytes()
		case f == 7 && wt == wire.TVarint:
			p.SnapSeq = d.Varint()
		case f == 8 && wt == wire.TBytes:
			p.Records = append(p.Records, d.Bytes())
		case f == 9 && wt == wire.TVarint:
			p.Kind = int(d.Varint())
		default:
			skipUnknown(d, wt)
		}
	}
	if string(domain) != p.Domain {
		p.Domain = string(domain)
	}
	return d.Err()
}

// ResultPayload: 1=granted 2=reason 3=handle 4=approvals(repeated)
// 5=policy_info(repeated k/v pairs, key-sorted) 6=trace_id
// 7=trace(repeated spans) 8=batch_results(repeated) 9=ack_seq 10=term.
// The approvals are Stack, as it was answered, then Approvals.
func (p *ResultPayload) appendFields(buf []byte) []byte {
	buf = wire.AppendBool(buf, 1, p.Granted)
	buf = wire.AppendString(buf, 2, p.Reason)
	buf = wire.AppendString(buf, 3, p.Handle)
	buf = append(buf, p.Stack...)
	for i := range p.Approvals {
		var start int
		buf, start = wire.BeginNested(buf, 4)
		buf = p.Approvals[i].appendFields(buf)
		buf = wire.EndNested(buf, start)
	}
	buf = wire.AppendStringMap(buf, 5, p.PolicyInfo)
	buf = wire.AppendString(buf, 6, p.TraceID)
	for i := range p.Trace {
		var start int
		buf, start = wire.BeginNested(buf, 7)
		buf = p.Trace[i].AppendWire(buf)
		buf = wire.EndNested(buf, start)
	}
	for i := range p.BatchResults {
		var start int
		buf, start = wire.BeginNested(buf, 8)
		buf = p.BatchResults[i].appendFields(buf)
		buf = wire.EndNested(buf, start)
	}
	buf = wire.AppendInt(buf, 9, p.AckSeq)
	buf = wire.AppendInt(buf, 10, p.Term)
	return buf
}

// decodeFields leaves the approvals as the bytes they came in (DESIGN.md
// §6.6, "Who owns a frame"): Stack is the result's field-4 entries, in
// order, and Approvals stays empty. A first pass walks every approval
// down to its fields, so a torn one is refused here and never relayed,
// and finds where the entries lie. Stack and the payload's own strings
// are then cut from one string made from d.Buf, or from d.Text when
// the decoder has one (DecodeMessageIn); entries that other fields
// separate are joined into one string. A result without approvals pays
// nothing for them, one with eight pays one string, not a list and a
// signature array. The policy attributes, spans and batch results are
// copies, or substrings of d.Text. Nothing decoded aliases the frame.
func (p *ResultPayload) decodeFields(d *wire.Dec) error {
	first, last, size := 0, 0, 0
	for c := *d; c.More(); {
		at := c.Offset()
		f, wt := c.Tag()
		if f != 4 || wt != wire.TBytes {
			c.Skip(wt)
			continue
		}
		a := wire.Dec{Buf: c.Bytes()}
		for a.More() {
			_, wt := a.Tag()
			a.Skip(wt)
		}
		if err := a.Err(); err != nil {
			return err
		}
		if size == 0 {
			first = at
		}
		size += c.Offset() - at
		last = c.Offset()
	}
	var joined strings.Builder // the entries, when other fields lie between them
	if size > 0 {
		if d.Text == "" {
			d.Text = string(d.Buf)
		}
		if last-first == size {
			p.Stack = d.Text[first:last]
		} else {
			joined.Grow(size)
		}
	}
	for d.More() {
		at := d.Offset()
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TVarint:
			p.Granted = d.Bool()
		case f == 2 && wt == wire.TBytes:
			p.Reason = d.String()
		case f == 3 && wt == wire.TBytes:
			p.Handle = d.String()
		case f == 4 && wt == wire.TBytes:
			d.Skip(wt)
			if joined.Cap() > 0 {
				joined.WriteString(d.Text[at:d.Offset()])
			}
		case f == 5 && wt == wire.TBytes:
			if p.PolicyInfo == nil {
				p.PolicyInfo = make(map[string]string)
			}
			k, v := d.StringPair()
			p.PolicyInfo[k] = v
		case f == 6 && wt == wire.TBytes:
			p.TraceID = d.String()
		case f == 7 && wt == wire.TBytes:
			var s obs.Span
			if err := s.DecodeWire(d.Bytes()); err != nil {
				return err
			}
			p.Trace = append(p.Trace, s)
		case f == 8 && wt == wire.TBytes:
			sub := wire.Dec{Buf: d.Bytes()}
			var r TunnelOpResult
			if err := r.decodeFields(&sub); err != nil {
				return err
			}
			p.BatchResults = append(p.BatchResults, r)
		case f == 9 && wt == wire.TVarint:
			p.AckSeq = d.Varint()
		case f == 10 && wt == wire.TVarint:
			p.Term = d.Varint()
		default:
			skipUnknown(d, wt)
		}
	}
	if joined.Cap() > 0 {
		p.Stack = joined.String()
	}
	return d.Err()
}

// DecodedApprovals returns every approval of the result, destination
// first: Stack decoded, then Approvals. p is left as it is. The decoded
// approvals' strings are substrings of Stack, and their signatures share
// one copy of its bytes; that copy and the list are all it allocates.
func (p *ResultPayload) DecodedApprovals() ([]DomainApproval, error) {
	if p.Stack == "" {
		return p.Approvals, nil
	}
	buf := []byte(p.Stack)
	n := 0
	for c := (wire.Dec{Buf: buf}); c.More(); n++ {
		if f, wt := c.Tag(); f != 4 || wt != wire.TBytes {
			return nil, fmt.Errorf("signalling: approval stack holds field %d of wire type %d", f, wt)
		}
		c.Skip(wire.TBytes)
	}
	out := make([]DomainApproval, n, n+len(p.Approvals))
	d := wire.Dec{Buf: buf, Text: p.Stack}
	for i := range n {
		d.Tag()
		sub := d.Nested()
		if err := out[i].decodeFields(&sub); err != nil {
			return nil, err
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return append(out, p.Approvals...), nil
}

// DecodeApprovals moves the approval stack into Approvals, below the
// approvals already there (DecodedApprovals), for a reader that checks
// or prints them.
func (p *ResultPayload) DecodeApprovals() error {
	all, err := p.DecodedApprovals()
	if err != nil {
		return err
	}
	p.Approvals, p.Stack = all, ""
	return nil
}

// encBufPool recycles encode buffers for the RPC send paths. Both
// transports finish with the buffer before Send returns (memory copies,
// TLS writes through), so returning it to the pool afterwards is safe.
var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}
