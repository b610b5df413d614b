package saga

import "e2eqos/internal/wire"

// Binary codecs for the saga journal record and the coordinator's
// snapshot (DESIGN.md §6.6).

// Step fields, shared by the journal record and the snapshot:
// 2=step_id 3=kind 4=data 5=done.
func (st *Step) appendFields(buf []byte) []byte {
	buf = wire.AppendInt(buf, 2, int64(st.ID))
	buf = wire.AppendString(buf, 3, st.Kind)
	buf = wire.AppendBytes(buf, 4, st.Data)
	return wire.AppendBool(buf, 5, st.Done)
}

// decodeField decodes one Step field, or skips a tag that is not one.
func (st *Step) decodeField(d *wire.Dec, f uint32, wt byte) {
	switch {
	case f == 2 && wt == wire.TVarint:
		st.ID = int(d.Varint())
	case f == 3 && wt == wire.TBytes:
		st.Kind = d.String()
	case f == 4 && wt == wire.TBytes:
		st.Data = append([]byte(nil), d.Bytes()...)
	case f == 5 && wt == wire.TVarint:
		st.Done = d.Bool()
	default:
		d.Skip(wt)
	}
}

// record: 1=saga id, then the Step fields (none in an end record).
func (r record) AppendBinary(buf []byte) []byte {
	buf = wire.AppendString(buf, 1, r.ID)
	return r.Step.appendFields(buf)
}

func (r *record) DecodeBinary(data []byte) error {
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		if f == 1 && wt == wire.TBytes {
			r.ID = d.String()
		} else {
			r.Step.decodeField(&d, f, wt)
		}
	}
	return d.Err()
}

// Snapshot: repeated 1=saga, each 1=id 3=steps (repeated, the Step
// fields). Tag 2, the aborting flag of older snapshots, is retired and
// skipped. The caller passes snaps sorted by id.
func appendSnaps(buf []byte, snaps []Snap) []byte {
	for i := range snaps {
		var saga int
		buf, saga = wire.BeginNested(buf, 1)
		buf = wire.AppendString(buf, 1, snaps[i].ID)
		for j := range snaps[i].Steps {
			var step int
			buf, step = wire.BeginNested(buf, 3)
			buf = snaps[i].Steps[j].appendFields(buf)
			buf = wire.EndNested(buf, step)
		}
		buf = wire.EndNested(buf, saga)
	}
	return buf
}

func decodeSnaps(data []byte) ([]Snap, error) {
	var snaps []Snap
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		if f != 1 || wt != wire.TBytes {
			d.Skip(wt)
			continue
		}
		sn, err := decodeSnap(d.Bytes())
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, sn)
	}
	return snaps, d.Err()
}

func decodeSnap(data []byte) (Snap, error) {
	var sn Snap
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			sn.ID = d.String()
		case f == 3 && wt == wire.TBytes:
			var st Step
			sd := wire.Dec{Buf: d.Bytes()}
			for sd.More() {
				f, wt := sd.Tag()
				st.decodeField(&sd, f, wt)
			}
			if err := sd.Err(); err != nil {
				return sn, err
			}
			sn.Steps = append(sn.Steps, st)
		default:
			d.Skip(wt)
		}
	}
	return sn, d.Err()
}
