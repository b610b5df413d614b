package resv

import (
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// Binary codecs for the table's journal records and snapshot
// (DESIGN.md §6.6). The AppendBinary methods satisfy the journal's
// BinaryRecord interface, putting every table mutation on the
// journal's allocation-free append path. Replay decodes an admission
// into one copy of its record, and a cancel or compaction in place.
//
// Reservation fields: 1=handle 2=user 3=src_host 4=dst_host
// 5=bandwidth 6=window_start 7=window_end 8=status 9=tunnel
// 10=created 11=cancelled_at.
func (r *Reservation) appendFields(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, r.Handle)
	buf = wire.AppendString(buf, 2, string(r.User))
	buf = wire.AppendString(buf, 3, r.SrcHost)
	buf = wire.AppendString(buf, 4, r.DstHost)
	buf = wire.AppendInt(buf, 5, int64(r.Bandwidth))
	buf = wire.AppendTime(buf, 6, r.Window.Start)
	buf = wire.AppendTime(buf, 7, r.Window.End)
	buf = wire.AppendInt(buf, 8, int64(r.Status))
	buf = wire.AppendBool(buf, 9, r.Tunnel)
	buf = wire.AppendTime(buf, 10, r.Created)
	buf = wire.AppendTime(buf, 11, r.CancelledAt)
	return buf
}

func (r *Reservation) decodeFields(d *wire.Dec) error {
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			r.Handle = d.String()
		case f == 2 && wt == wire.TBytes:
			r.User = identity.DN(d.String())
		case f == 3 && wt == wire.TBytes:
			r.SrcHost = d.String()
		case f == 4 && wt == wire.TBytes:
			r.DstHost = d.String()
		case f == 5 && wt == wire.TVarint:
			r.Bandwidth = units.Bandwidth(d.Varint())
		case f == 6 && wt == wire.TBytes:
			r.Window.Start = d.Time()
		case f == 7 && wt == wire.TBytes:
			r.Window.End = d.Time()
		case f == 8 && wt == wire.TVarint:
			r.Status = Status(d.Varint())
		case f == 9 && wt == wire.TVarint:
			r.Tunnel = d.Bool()
		case f == 10 && wt == wire.TBytes:
			r.Created = d.Time()
		case f == 11 && wt == wire.TBytes:
			r.CancelledAt = d.Time()
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}

// admitRec: 1=resv 2=seq.
func (a admitRec) AppendBinary(buf []byte) []byte {
	var start int
	buf, start = wire.BeginNested(buf, 1)
	buf = a.Resv.appendFields(buf)
	buf = wire.EndNested(buf, start)
	return wire.AppendInt(buf, 2, a.Seq)
}

// DecodeBinary cuts the reservation's strings from one copy of data:
// the reservation outlives the log, snapshot or stream message the
// record was read from (DESIGN.md §6.6, "Who owns a frame").
func (a *admitRec) DecodeBinary(data []byte) error {
	d := wire.Dec{Buf: data, Text: string(data)}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			sub := d.Nested()
			if err := a.Resv.decodeFields(&sub); err != nil {
				return err
			}
		case f == 2 && wt == wire.TVarint:
			a.Seq = d.Varint()
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}

// cancelRec: 1=handle 2=cancelled_at.
func (c cancelRec) AppendBinary(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, c.Handle)
	return wire.AppendTime(buf, 2, c.CancelledAt)
}

// decodeCancel decodes a cancelRec in place: the handle aliases data,
// which is all a replayed cancel needs of it.
func decodeCancel(data []byte) (handle []byte, at time.Time, err error) {
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			handle = d.Bytes()
		case f == 2 && wt == wire.TBytes:
			at = d.Time()
		default:
			d.Skip(wt)
		}
	}
	return handle, at, d.Err()
}

// compactRec: repeated 1=removed handle.
func (c compactRec) AppendBinary(buf []byte) []byte {
	for _, h := range c.Removed {
		buf = wire.AppendTag(buf, 1, wire.TBytes)
		buf = wire.AppendUvarint(buf, uint64(len(h)))
		buf = append(buf, h...)
	}
	return buf
}

// eachRemoved decodes a compactRec in place: once the whole record has
// decoded, fn gets each removed handle as a sub-slice of data, so a
// corrupt record hands it none.
func eachRemoved(data []byte, fn func(handle []byte)) error {
	for pass := 0; pass < 2; pass++ {
		d := wire.Dec{Buf: data}
		for d.More() {
			f, wt := d.Tag()
			if f == 1 && wt == wire.TBytes {
				if h := d.Bytes(); pass == 1 {
					fn(h)
				}
			} else {
				d.Skip(wt)
			}
		}
		if err := d.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Table snapshot binary layout: snapMagic, wire.Version, then 1=name
// 2=capacity 3=seq 4=reservations (repeated, sorted by handle — the
// deterministic-bytes property the recovery tests assert on).
const snapMagic = 0xB2

func (s *snapshot) appendBinary(buf []byte) []byte {
	buf = append(buf, snapMagic, wire.Version)
	buf = wire.AppendString(buf, 1, s.Name)
	buf = wire.AppendInt(buf, 2, int64(s.Capacity))
	buf = wire.AppendInt(buf, 3, s.Seq)
	for i := range s.Reservations {
		var start int
		buf, start = wire.BeginNested(buf, 4)
		buf = s.Reservations[i].appendFields(buf)
		buf = wire.EndNested(buf, start)
	}
	return buf
}

func (s *snapshot) decodeBinary(data []byte) error {
	fields, err := wire.Header(data, snapMagic)
	if err != nil {
		return err
	}
	d := wire.Dec{Buf: fields}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			s.Name = d.String()
		case f == 2 && wt == wire.TVarint:
			s.Capacity = units.Bandwidth(d.Varint())
		case f == 3 && wt == wire.TVarint:
			s.Seq = d.Varint()
		case f == 4 && wt == wire.TBytes:
			sub := wire.Dec{Buf: d.Bytes()}
			var r Reservation
			if err := r.decodeFields(&sub); err != nil {
				return err
			}
			s.Reservations = append(s.Reservations, r)
		default:
			d.Skip(wt)
		}
	}
	return d.Err()
}
