package envelope

import (
	"fmt"

	"e2eqos/internal/identity"
	"e2eqos/internal/wire"
)

// Binary layout (DESIGN.md §6.6). An encoded envelope is:
//
//	byte 0   envMagic (0xE5)
//	byte 1   envVersion
//	fields   1=signer_dn 2=payload 3=signature
//
// Payload holds the body's field encoding verbatim — the exact bytes
// the signature covers, so verification never depends on re-marshal
// stability. Body fields: 1=inner (a nested envelope encoding, so the
// onion grows additively) 2=request 3=upstream_cert 4=next_hop_dn
// 5=capabilities (repeated) 6=policy_info (repeated key/value pairs,
// key-sorted for canonical bytes) 7=timestamp.
const (
	envMagic   = 0xE5
	envVersion = 1
)

// appendEnvelope appends e's binary encoding.
func appendEnvelope(buf []byte, e *Envelope) []byte {
	buf = append(buf, envMagic, envVersion)
	buf = wire.AppendString(buf, 1, string(e.SignerDN))
	buf = wire.AppendBytes(buf, 2, e.Payload)
	buf = wire.AppendBytes(buf, 3, e.Signature)
	return buf
}

// decodeEnvelope parses one binary envelope.
func decodeEnvelope(data []byte) (*Envelope, error) {
	if len(data) < 2 || data[0] != envMagic {
		return nil, fmt.Errorf("envelope: not a binary envelope")
	}
	if data[1] != envVersion {
		return nil, fmt.Errorf("envelope: unsupported version %d", data[1])
	}
	e := &Envelope{}
	d := wire.Dec{Buf: data[2:]}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			e.SignerDN = identity.DN(d.String())
		case f == 2 && wt == wire.TBytes:
			e.Payload = append([]byte(nil), d.Bytes()...)
		case f == 3 && wt == wire.TBytes:
			e.Signature = append([]byte(nil), d.Bytes()...)
		default:
			d.Skip(wt)
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("envelope: decode: %w", err)
	}
	return e, nil
}

// appendBody appends b's canonical field encoding — the signed bytes.
func appendBody(buf []byte, b *Body) []byte {
	if b.Inner != nil {
		var start int
		buf, start = wire.BeginNested(buf, 1)
		buf = appendEnvelope(buf, b.Inner)
		buf = wire.EndNested(buf, start)
	}
	buf = wire.AppendBytes(buf, 2, b.Request)
	buf = wire.AppendBytes(buf, 3, b.UpstreamCertDER)
	buf = wire.AppendString(buf, 4, string(b.NextHopDN))
	for _, der := range b.CapabilityDERs {
		// Empty capability entries still encode (zero-length bytes
		// field) so the slice shape round-trips.
		buf = wire.AppendTag(buf, 5, wire.TBytes)
		buf = wire.AppendUvarint(buf, uint64(len(der)))
		buf = append(buf, der...)
	}
	buf = wire.AppendStringMap(buf, 6, b.PolicyInfo)
	buf = wire.AppendTime(buf, 7, b.Timestamp)
	return buf
}

// decodeBody parses a payload produced by appendBody.
func decodeBody(data []byte) (*Body, error) {
	b := &Body{}
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			inner, err := decodeEnvelope(d.Bytes())
			if err != nil {
				return nil, err
			}
			b.Inner = inner
		case f == 2 && wt == wire.TBytes:
			b.Request = append([]byte(nil), d.Bytes()...)
		case f == 3 && wt == wire.TBytes:
			b.UpstreamCertDER = append([]byte(nil), d.Bytes()...)
		case f == 4 && wt == wire.TBytes:
			b.NextHopDN = identity.DN(d.String())
		case f == 5 && wt == wire.TBytes:
			b.CapabilityDERs = append(b.CapabilityDERs, append([]byte(nil), d.Bytes()...))
		case f == 6 && wt == wire.TBytes:
			if b.PolicyInfo == nil {
				b.PolicyInfo = make(map[string]string)
			}
			k, v := d.StringPair()
			b.PolicyInfo[k] = v
		case f == 7 && wt == wire.TBytes:
			b.Timestamp = wire.DecodeTime(d.Bytes())
		default:
			d.Skip(wt)
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("envelope: decode body: %w", err)
	}
	return b, nil
}
