package envelope

import (
	"fmt"

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
// key-sorted for canonical bytes) 7=timestamp 8=claim.
const (
	envMagic   = 0xE5
	envVersion = 1
)

// envelopeSize is the length of e's binary encoding.
func envelopeSize(e *Envelope) int {
	return 2 + wire.SizeBytes(1, len(e.SignerDN)) + wire.SizeBytes(2, len(e.Payload)) + wire.SizeBytes(3, len(e.Signature))
}

// appendEnvelope appends e's binary encoding.
func appendEnvelope(buf []byte, e *Envelope) []byte {
	buf = append(buf, envMagic, envVersion)
	buf = wire.AppendString(buf, 1, string(e.SignerDN))
	buf = wire.AppendBytes(buf, 2, e.Payload)
	buf = wire.AppendBytes(buf, 3, e.Signature)
	return buf
}

// decodeEnvelope parses one binary envelope into e, in place: Payload
// and Signature are sub-slices of d.Buf, and so the caller's to keep
// only for as long as it owns those bytes (DESIGN.md §6.6, "Who owns a
// frame"). It leaves SignerDN empty and returns the signer's name as
// the bytes it is, for the caller to make a DN of.
func decodeEnvelope(e *Envelope, d wire.Dec) (signer []byte, err error) {
	if len(d.Buf) < 2 || d.Buf[0] != envMagic {
		return nil, fmt.Errorf("envelope: not a binary envelope")
	}
	if d.Buf[1] != envVersion {
		return nil, fmt.Errorf("envelope: unsupported version %d", d.Buf[1])
	}
	d.Buf = d.Buf[2:]
	*e = Envelope{}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			signer = d.Bytes()
		case f == 2 && wt == wire.TBytes:
			e.Payload = d.Bytes()
		case f == 3 && wt == wire.TBytes:
			e.Signature = d.Bytes()
		default:
			d.Skip(wt)
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("envelope: decode: %w", err)
	}
	return signer, nil
}

// bodySize is the length of b's canonical field encoding: every field's
// length is known before a byte is written, so Seal allocates the
// payload once and the inner envelope is never moved.
func bodySize(b *Body) int {
	n := wire.SizeBytes(2, len(b.Request)) + wire.SizeBytes(3, len(b.UpstreamCertDER)) + wire.SizeBytes(4, len(b.NextHopDN))
	if b.Inner != nil {
		n += wire.SizeBytes(1, envelopeSize(b.Inner))
	}
	// A capability entry is written even when empty; its tag is one byte.
	for _, der := range b.CapabilityDERs {
		n += 1 + wire.SizeUvarint(uint64(len(der))) + len(der)
	}
	var ts [24]byte
	return n + wire.SizeStringMap(6, b.PolicyInfo) + len(wire.AppendTime(ts[:0], 7, b.Timestamp)) + wire.SizeBytes(8, len(b.Claim))
}

// appendBody appends b's canonical field encoding — the signed bytes.
func appendBody(buf []byte, b *Body) []byte {
	if b.Inner != nil {
		buf = b.Inner.AppendField(buf, 1)
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
	buf = wire.AppendBytes(buf, 8, b.Claim)
	return buf
}

// decodeBody parses a payload produced by appendBody into b, in place:
// every bytes field of the body, the claim included, and of the envelope
// inside it, is a sub-slice of data. The layer's DNs, the signer of the
// envelope inside and its policy attributes are made by n.
// The envelope nested in the body, if any, is decoded into inner and
// reported by hasInner; b.Inner is left as the caller set it. b keeps
// its capability array and policy map.
func decodeBody(b *Body, inner *Envelope, data []byte, n *names) (hasInner bool, err error) {
	b.reset()
	d := wire.Dec{Buf: data}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			signer, err := decodeEnvelope(inner, d.Nested())
			if err != nil {
				return false, err
			}
			inner.SignerDN, hasInner = n.dn(signer), true
		case f == 2 && wt == wire.TBytes:
			b.Request = d.Bytes()
		case f == 3 && wt == wire.TBytes:
			b.UpstreamCertDER = d.Bytes()
		case f == 4 && wt == wire.TBytes:
			b.NextHopDN = n.dn(d.Bytes())
		case f == 5 && wt == wire.TBytes:
			b.CapabilityDERs = append(b.CapabilityDERs, d.Bytes())
		case f == 6 && wt == wire.TBytes:
			pair := d.Nested()
			k, v := pair.Bytes(), pair.Bytes()
			if err := pair.Err(); err != nil {
				return false, fmt.Errorf("envelope: decode body: %w", err)
			}
			if b.PolicyInfo == nil {
				b.PolicyInfo = make(map[string]string)
			}
			b.PolicyInfo[n.attr(k)] = n.attr(v)
		case f == 7 && wt == wire.TBytes:
			b.Timestamp = wire.DecodeTime(d.Bytes())
		case f == 8 && wt == wire.TBytes:
			b.Claim = d.Bytes()
		default:
			d.Skip(wt)
		}
	}
	if err := d.Err(); err != nil {
		return false, fmt.Errorf("envelope: decode body: %w", err)
	}
	return hasInner, nil
}
