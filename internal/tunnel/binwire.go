package tunnel

import (
	"e2eqos/internal/identity"
	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// Binary codec for EndpointSnapshot (DESIGN.md §6.6), satisfying the
// journal's BinaryRecord/BinaryDecoder interfaces: tunnel-establish
// records and the broker snapshot carry endpoints in this form.
// Fields: 1=rar_id 2=aggregate 3=window_start 4=window_end 5=peer_bb
// 6=owner 7=epoch 8=gen 9=sub_flows (repeated; 1=id 2=bandwidth).
// Sub-flows are already sorted by id (Snapshot guarantees it), so the
// encoding is deterministic.

// AppendBinary appends the snapshot's binary encoding.
func (s EndpointSnapshot) AppendBinary(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, s.RARID)
	buf = wire.AppendInt(buf, 2, int64(s.Aggregate))
	buf = wire.AppendTime(buf, 3, s.Window.Start)
	buf = wire.AppendTime(buf, 4, s.Window.End)
	buf = wire.AppendString(buf, 5, string(s.PeerBB))
	buf = wire.AppendString(buf, 6, string(s.Owner))
	buf = wire.AppendInt(buf, 7, s.Epoch)
	buf = wire.AppendInt(buf, 8, s.Gen)
	for i := range s.SubFlows {
		var start int
		buf, start = wire.BeginNested(buf, 9)
		buf = wire.AppendString(buf, 1, s.SubFlows[i].ID)
		buf = wire.AppendInt(buf, 2, int64(s.SubFlows[i].Bandwidth))
		buf = wire.EndNested(buf, start)
	}
	return buf
}

// DecodeBinary reverses AppendBinary. It allocates per snapshot, not per
// sub-flow: a first pass counts the sub-flows, SubFlows is made once, and
// every sub-flow id is a substring of one string copy of data. The ids
// therefore pin that copy for as long as they live; Restore copies them
// into a Keys of its own. The endpoint's own strings stay copies.
func (s *EndpointSnapshot) DecodeBinary(data []byte) error {
	n := 0
	for c := (wire.Dec{Buf: data}); c.More(); {
		f, wt := c.Tag()
		if f == 9 && wt == wire.TBytes {
			n++
		}
		c.Skip(wt)
	}
	var text string
	if n > 0 {
		text = string(data)
		s.SubFlows = make([]SubFlow, 0, n)
	}
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			s.RARID = d.String()
		case f == 2 && wt == wire.TVarint:
			s.Aggregate = units.Bandwidth(d.Varint())
		case f == 3 && wt == wire.TBytes:
			s.Window.Start = d.Time()
		case f == 4 && wt == wire.TBytes:
			s.Window.End = d.Time()
		case f == 5 && wt == wire.TBytes:
			s.PeerBB = identity.DN(d.String())
		case f == 6 && wt == wire.TBytes:
			s.Owner = identity.DN(d.String())
		case f == 7 && wt == wire.TVarint:
			s.Epoch = d.Varint()
		case f == 8 && wt == wire.TVarint:
			s.Gen = d.Varint()
		case f == 9 && wt == wire.TBytes:
			sub := d.NestedIn(text)
			var sf SubFlow
			for sub.More() {
				sf2, swt := sub.Tag()
				switch {
				case sf2 == 1 && swt == wire.TBytes:
					sf.ID = sub.String()
				case sf2 == 2 && swt == wire.TVarint:
					sf.Bandwidth = units.Bandwidth(sub.Varint())
				default:
					sub.Skip(swt)
				}
			}
			if err := sub.Err(); err != nil {
				return err
			}
			s.SubFlows = append(s.SubFlows, sf)
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}
