package bb

import (
	"errors"
	"fmt"

	"e2eqos/internal/identity"
	"e2eqos/internal/signalling"
	"e2eqos/internal/tunnel"
	"e2eqos/internal/wire"
)

// Binary codecs for the broker's journal records and rotated snapshot
// (DESIGN.md §6.6). Settled outcomes nest as complete signalling
// frames (bytes fields holding Message.AppendBinary output), so the
// replay cache round-trips through the same codec the wire uses.

// appendOutcome encodes an optional outcome message as a bytes field.
func appendOutcome(buf []byte, field uint32, m *signalling.Message) []byte {
	if m == nil {
		return buf
	}
	var start int
	buf, start = wire.BeginNested(buf, field)
	buf = m.AppendBinary(buf)
	return wire.EndNested(buf, start)
}

// decodeOutcome decodes a recorded outcome whose strings are cut from
// text, which holds the same bytes as data, its approval stack included
// (DESIGN.md §6.6, "Who owns a frame"): the outcome keeps nothing of
// data, and needs no copy of its frame to outlive the log, snapshot or
// stream message it was read from. Only a result is an outcome; any
// other message would alias data.
func decodeOutcome(data []byte, text string) (*signalling.Message, error) {
	m, err := signalling.DecodeMessageIn(data, text)
	if err != nil {
		return nil, err
	}
	if m.Result == nil {
		return nil, fmt.Errorf("bb: a recorded outcome is a result, not a %s message", m.Type)
	}
	return m, nil
}

// childRoute: 1=next 2=key 3=bw.
func (c childRoute) appendFields(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, string(c.Next))
	buf = wire.AppendString(buf, 2, c.Key)
	return wire.AppendInt(buf, 3, c.BW)
}

func (c *childRoute) decodeFields(d *wire.Dec) error {
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			c.Next = identity.DN(d.String())
		case f == 2 && wt == wire.TBytes:
			c.Key = d.String()
		case f == 3 && wt == wire.TVarint:
			c.BW = d.Varint()
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}

// rarRec: 1=rar_id 2=epoch 3=handle 4=next 5=tunnel 6=source_bb
// 7=outcome 8=down_key 9=children(repeated). The record is older than
// the one list of downstream legs and keeps its fields: the one leg of a
// whole reservation travels as next and down_key, the shares of a split
// as children.
func (r rarRec) AppendBinary(buf []byte) []byte {
	var whole childRoute
	if len(r.Legs) == 1 && r.Legs[0].BW == 0 {
		whole = r.Legs[0]
	}
	buf = wire.AppendString(buf, 1, r.RARID)
	buf = wire.AppendInt(buf, 2, r.Epoch)
	buf = wire.AppendString(buf, 3, r.Handle)
	buf = wire.AppendString(buf, 4, string(whole.Next))
	buf = wire.AppendBool(buf, 5, r.Tunnel)
	buf = wire.AppendString(buf, 6, string(r.SourceBB))
	buf = appendOutcome(buf, 7, r.Outcome)
	buf = wire.AppendString(buf, 8, whole.Key)
	for i := 0; whole.Next == "" && i < len(r.Legs); i++ {
		var start int
		buf, start = wire.BeginNested(buf, 9)
		buf = r.Legs[i].appendFields(buf)
		buf = wire.EndNested(buf, start)
	}
	return buf
}

// DecodeBinary decodes one copy of data: the entry a record becomes
// outlives the log, snapshot or stream message it was read from
// (DESIGN.md §6.6, "Who owns a frame"). Every string, the outcome's
// and its approval stack included, is cut from one string copy of the
// record (decodeOutcome).
func (r *rarRec) DecodeBinary(data []byte) error {
	d := wire.Dec{Buf: data, Text: string(data)}
	var whole childRoute
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			r.RARID = d.String()
		case f == 2 && wt == wire.TVarint:
			r.Epoch = d.Varint()
		case f == 3 && wt == wire.TBytes:
			r.Handle = d.String()
		case f == 4 && wt == wire.TBytes:
			whole.Next = identity.DN(d.String())
		case f == 5 && wt == wire.TVarint:
			r.Tunnel = d.Bool()
		case f == 6 && wt == wire.TBytes:
			r.SourceBB = identity.DN(d.String())
		case f == 7 && wt == wire.TBytes:
			sub := d.Nested()
			if d.Err() != nil {
				return d.Err()
			}
			m, err := decodeOutcome(sub.Buf, sub.Text)
			if err != nil {
				return err
			}
			r.Outcome = m
		case f == 8 && wt == wire.TBytes:
			whole.Key = d.String()
		case f == 9 && wt == wire.TBytes:
			sub := d.Nested()
			var c childRoute
			if err := c.decodeFields(&sub); err != nil {
				return err
			}
			r.Legs = append(r.Legs, c)
		default:
			d.Skip(wt)
		}
	}
	if whole.Next != "" {
		r.Legs = []childRoute{whole}
	}
	return d.Err()
}

// rarCancelRec: 1=rar_id 2=epoch.
func (r rarCancelRec) AppendBinary(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, r.RARID)
	return wire.AppendInt(buf, 2, r.Epoch)
}

// decodeRemoval decodes a rarCancelRec in place: the key aliases data,
// which is all a replayed removal needs of it.
func decodeRemoval(data []byte) (key []byte, epoch int64, err error) {
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			key = d.Bytes()
		case f == 2 && wt == wire.TVarint:
			epoch = d.Varint()
		default:
			d.Skip(wt)
		}
	}
	return key, epoch, d.Err()
}

// tunnelOpRec: 1=action 2=sub_flow_id 3=bandwidth 4=gen.
func (r tunnelOpRec) appendFields(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, r.Action)
	buf = wire.AppendString(buf, 2, r.SubFlowID)
	buf = wire.AppendInt(buf, 3, r.Bandwidth)
	return wire.AppendInt(buf, 4, r.Gen)
}

func (r *tunnelOpRec) decodeFields(d *wire.Dec) error {
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			r.Action = d.String()
		case f == 2 && wt == wire.TBytes:
			r.SubFlowID = d.String()
		case f == 3 && wt == wire.TVarint:
			r.Bandwidth = d.Varint()
		case f == 4 && wt == wire.TVarint:
			r.Gen = d.Varint()
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}

// tunnelBatchRec: 1=rar_id 2=epoch 4=ops(repeated) 5=outcome 6=sender
// 7=seq 8=low 9=sum. Field 3 was the batch id, before batches were
// numbered by their sender: a record carrying one is refused by name.
func (r tunnelBatchRec) AppendBinary(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, r.RARID)
	buf = wire.AppendInt(buf, 2, r.Epoch)
	for i := range r.Ops {
		var start int
		buf, start = wire.BeginNested(buf, 4)
		buf = r.Ops[i].appendFields(buf)
		buf = wire.EndNested(buf, start)
	}
	buf = appendOutcome(buf, 5, r.Outcome)
	buf = wire.AppendString(buf, 6, string(r.Sender))
	buf = wire.AppendInt(buf, 7, r.Seq)
	buf = wire.AppendInt(buf, 8, r.Low)
	return wire.AppendUint(buf, 9, r.Sum)
}

// DecodeBinary allocates per record, not per op: a first pass counts the
// ops, Ops is made once, and every string is cut from one string copy of
// the record. Nothing keeps one of them: the sender's window copies its
// sender, the endpoint copies the alloc ops' ids into a Keys
// (replayer.applyBatch), and the outcome's strings are cut from one
// string copy of its own frame, so it does not pin the record's.
func (r *tunnelBatchRec) DecodeBinary(data []byte) error {
	n := 0
	for c := (wire.Dec{Buf: data}); c.More(); {
		f, wt := c.Tag()
		if f == 4 && wt == wire.TBytes {
			n++
		}
		c.Skip(wt)
	}
	if n > 0 {
		r.Ops = make([]tunnelOpRec, 0, n)
	}
	d := wire.Dec{Buf: data, Text: string(data)}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			r.RARID = d.String()
		case f == 2 && wt == wire.TVarint:
			r.Epoch = d.Varint()
		case f == 3 && wt == wire.TBytes:
			return errBatchIDs
		case f == 4 && wt == wire.TBytes:
			sub := d.Nested()
			r.Ops = append(r.Ops, tunnelOpRec{})
			if err := r.Ops[len(r.Ops)-1].decodeFields(&sub); err != nil {
				return err
			}
		case f == 5 && wt == wire.TBytes:
			b := d.Bytes()
			if d.Err() != nil {
				return d.Err()
			}
			m, err := decodeOutcome(b, string(b))
			if err != nil {
				return err
			}
			r.Outcome = m
		case f == 6 && wt == wire.TBytes:
			r.Sender = identity.DN(d.String())
		case f == 7 && wt == wire.TVarint:
			r.Seq = d.Varint()
		case f == 8 && wt == wire.TVarint:
			r.Low = d.Varint()
		case f == 9 && wt == wire.TVarint:
			r.Sum = d.Uvarint()
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}

// errBatchIDs refuses state written before batches were numbered by
// their sender: a replay entry keyed by batch id has no sender's window
// to go into.
var errBatchIDs = errors.New("bb: batch replay entries keyed by batch id, the shape before batches were numbered by their sender: end the tunnel with the build that wrote them")

// compArg: 1=peer 2=key 3=handle.
func (c compArg) AppendBinary(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, string(c.Peer))
	buf = wire.AppendString(buf, 2, c.Key)
	return wire.AppendString(buf, 3, c.Handle)
}

func (c *compArg) DecodeBinary(data []byte) error {
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			c.Peer = identity.DN(d.String())
		case f == 2 && wt == wire.TBytes:
			c.Key = d.String()
		case f == 3 && wt == wire.TBytes:
			c.Handle = d.String()
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}

// Broker snapshot binary layout: bbSnapMagic, wire.Version, then
// 1=table(the resv snapshot bytes) 2=rars 3=tunnels 5=epoch 6=sagas(the
// coordinator's snapshot bytes) 7=tunnel_batches(tunnelBatchRec). Field
// 4 held batch replay entries keyed by batch id: a snapshot carrying one
// is refused by name.
const bbSnapMagic = 0xB3

func (st *brokerState) appendBinary(buf []byte) []byte {
	buf = append(buf, bbSnapMagic, wire.Version)
	buf = wire.AppendBytes(buf, 1, st.Table)
	for i := range st.RARs {
		var start int
		buf, start = wire.BeginNested(buf, 2)
		buf = st.RARs[i].AppendBinary(buf)
		buf = wire.EndNested(buf, start)
	}
	for i := range st.Tunnels {
		var start int
		buf, start = wire.BeginNested(buf, 3)
		buf = st.Tunnels[i].AppendBinary(buf)
		buf = wire.EndNested(buf, start)
	}
	buf = wire.AppendInt(buf, 5, st.Epoch)
	buf = wire.AppendBytes(buf, 6, st.Sagas)
	for i := range st.TunnelBatches {
		var start int
		buf, start = wire.BeginNested(buf, 7)
		buf = st.TunnelBatches[i].AppendBinary(buf)
		buf = wire.EndNested(buf, start)
	}
	return buf
}

func (st *brokerState) decodeBinary(data []byte) error {
	fields, err := wire.Header(data, bbSnapMagic)
	if err != nil {
		return err
	}
	d := wire.Dec{Buf: fields}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			st.Table = append([]byte(nil), d.Bytes()...)
		case f == 2 && wt == wire.TBytes:
			var r rarRec
			if err := r.DecodeBinary(d.Bytes()); err != nil {
				return err
			}
			st.RARs = append(st.RARs, r)
		case f == 3 && wt == wire.TBytes:
			var ts tunnel.EndpointSnapshot
			if err := ts.DecodeBinary(d.Bytes()); err != nil {
				return err
			}
			st.Tunnels = append(st.Tunnels, ts)
		case f == 4 && wt == wire.TBytes:
			return errBatchIDs
		case f == 5 && wt == wire.TVarint:
			st.Epoch = d.Varint()
		case f == 6 && wt == wire.TBytes:
			st.Sagas = append([]byte(nil), d.Bytes()...)
		case f == 7 && wt == wire.TBytes:
			var r tunnelBatchRec
			if err := r.DecodeBinary(d.Bytes()); err != nil {
				return err
			}
			st.TunnelBatches = append(st.TunnelBatches, r)
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}
