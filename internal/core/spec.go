// Package core implements the paper's primary contribution: the
// transitive-trust signalling of policy information between bandwidth
// brokers (§6). It combines the nested signed envelopes of
// internal/envelope, the capability delegation of internal/pki and a
// per-broker trust store into the concrete message flow
//
//	RAR_U     = sign_U({res_spec, DN_BBA, CapCert'_CAS, CapCert'_U})
//	RAR_A     = sign_BBA({RAR_U, cert_U, DN_BBB, CapCert'_A})
//	RAR_{N+1} = sign_BB{N+1}({RAR_N, cert_N, DN_BB{N+2}, CapCert'_{N+1}})
//
// with, at every hop, verification of the full chain through the
// web-of-trust introduction semantics: a verified outer layer
// introduces the signer of the layer it wraps by embedding that
// signer's certificate.
package core

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
	"e2eqos/internal/wire"
)

// Spec is the res_spec of the paper: everything the user asks for.
type Spec struct {
	// RARID uniquely names this resource allocation request; capability
	// delegations are scoped to it ("valid for RAR").
	RARID string
	// User is the requesting principal.
	User identity.DN
	// SrcHost / DstHost are the flow endpoints.
	SrcHost string
	DstHost string
	// SourceDomain / DestDomain are resolved by the first broker (or
	// the user agent) from the hosts.
	SourceDomain string
	DestDomain   string
	// Bandwidth is the requested rate; Window the reservation interval.
	Bandwidth units.Bandwidth
	Window    units.Window
	// Tunnel requests an aggregate reservation usable for sub-flow
	// allocation via the direct source/end-domain channel.
	Tunnel bool
	// CostLimit is the maximum cost the user accepts (opaque).
	CostLimit string
	// Assertions are the user's unvalidated group claims
	// ("I am a physicist").
	Assertions []string
	// LinkedHandles reference co-reservations by resource type, e.g.
	// {"cpu": "cpu-domainc-17"} (Figure 6's CPU_Reservation_ID).
	LinkedHandles map[string]string
}

// Validate checks the user-controlled fields.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("core: nil spec")
	}
	if s.RARID == "" {
		return fmt.Errorf("core: spec missing RAR id")
	}
	if !s.User.Valid() {
		return fmt.Errorf("core: invalid user DN %q", s.User)
	}
	if s.Bandwidth <= 0 {
		return fmt.Errorf("core: non-positive bandwidth %v", s.Bandwidth)
	}
	if !s.Window.Valid() {
		return fmt.Errorf("core: invalid window %v", s.Window)
	}
	if s.SrcHost == "" || s.DstHost == "" {
		return fmt.Errorf("core: spec missing src/dst host")
	}
	return nil
}

// RestrictionFor returns the delegation restriction string scoping a
// capability to this RAR.
func (s *Spec) RestrictionFor() string { return "valid-for-rar:" + s.RARID }

// NewRARID mints a unique request identifier.
func NewRARID() string {
	var buf [12]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand failure is unrecoverable for protocol purposes.
		panic(fmt.Sprintf("core: rand: %v", err))
	}
	return "RAR-" + hex.EncodeToString(buf[:])
}

// Spec encoding (DESIGN.md §6.6): specMagic, wire.Version, then
// 1=rar_id 2=user 3=src_host 4=dst_host 5=source_domain 6=dest_domain
// 7=bandwidth 8=window_start 9=window_end 10=tunnel 11=cost_limit
// 12=assertions (repeated) 13=linked_handles (key-sorted pairs). These
// are the bytes the user signs. Times travel as instants: whatever zone
// the user wrote the window in, every hop reads it back in UTC.
const specMagic = 0xE6

// AppendBinary appends the spec's canonical encoding.
func (s *Spec) AppendBinary(buf []byte) []byte {
	buf = append(buf, specMagic, wire.Version)
	buf = wire.AppendString(buf, 1, s.RARID)
	buf = wire.AppendString(buf, 2, string(s.User))
	buf = wire.AppendString(buf, 3, s.SrcHost)
	buf = wire.AppendString(buf, 4, s.DstHost)
	buf = wire.AppendString(buf, 5, s.SourceDomain)
	buf = wire.AppendString(buf, 6, s.DestDomain)
	buf = wire.AppendInt(buf, 7, int64(s.Bandwidth))
	buf = wire.AppendTime(buf, 8, s.Window.Start)
	buf = wire.AppendTime(buf, 9, s.Window.End)
	buf = wire.AppendBool(buf, 10, s.Tunnel)
	buf = wire.AppendString(buf, 11, s.CostLimit)
	for _, a := range s.Assertions {
		buf = wire.AppendTag(buf, 12, wire.TBytes)
		buf = wire.AppendUvarint(buf, uint64(len(a)))
		buf = append(buf, a...)
	}
	return wire.AppendStringMap(buf, 13, s.LinkedHandles)
}

// DecodeSpec decodes a spec from a verified chain's request: the
// reverse of AppendBinary. Input that does not open with the spec's
// magic and version is wire.ErrUnsupportedFormat. Every string of the
// spec is cut from one exact-size copy of the spec's fields, so it
// holds nothing of the frame raw was decoded from.
func DecodeSpec(raw []byte) (*Spec, error) {
	fields, err := wire.Header(raw, specMagic)
	if err != nil {
		return nil, fmt.Errorf("core: decode spec: %w", err)
	}
	s := &Spec{}
	d := wire.Dec{Buf: fields, Text: string(fields)}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			s.RARID = d.String()
		case f == 2 && wt == wire.TBytes:
			s.User = identity.DN(d.String())
		case f == 3 && wt == wire.TBytes:
			s.SrcHost = d.String()
		case f == 4 && wt == wire.TBytes:
			s.DstHost = d.String()
		case f == 5 && wt == wire.TBytes:
			s.SourceDomain = d.String()
		case f == 6 && wt == wire.TBytes:
			s.DestDomain = d.String()
		case f == 7 && wt == wire.TVarint:
			s.Bandwidth = units.Bandwidth(d.Varint())
		case f == 8 && wt == wire.TBytes:
			s.Window.Start = d.Time()
		case f == 9 && wt == wire.TBytes:
			s.Window.End = d.Time()
		case f == 10 && wt == wire.TVarint:
			s.Tunnel = d.Bool()
		case f == 11 && wt == wire.TBytes:
			s.CostLimit = d.String()
		case f == 12 && wt == wire.TBytes:
			s.Assertions = append(s.Assertions, d.String())
		case f == 13 && wt == wire.TBytes:
			if s.LinkedHandles == nil {
				s.LinkedHandles = make(map[string]string)
			}
			k, v := d.StringPair()
			s.LinkedHandles[k] = v
		default:
			d.Skip(wt)
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: decode spec: %w", err)
	}
	return s, nil
}
