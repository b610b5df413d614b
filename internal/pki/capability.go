package pki

import (
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"fmt"
	"math/big"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/wire"
)

// Private-enterprise OIDs for the X.509v3 extensions carried by
// capability certificates. The paper's Figure 7 shows each certificate
// carrying a "Capability Certificate Flag", the community capabilities
// (e.g. "Capabilities of ESnet") and, on delegated certificates, the
// restriction "Valid for Reservation in Domain C" / "valid for RAR".
var (
	// OIDCapabilityFlag marks a certificate as a capability certificate.
	OIDCapabilityFlag = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 42, 1}
	// OIDCapabilityAttrs carries the capability attribute payload.
	OIDCapabilityAttrs = asn1.ObjectIdentifier{1, 3, 6, 1, 4, 1, 55555, 42, 2}
)

// CapabilityAttrs is the payload of the capability extension.
type CapabilityAttrs struct {
	// Community names the issuing community authorization service,
	// e.g. "ESnet".
	Community string
	// Capabilities lists the granted capabilities, e.g.
	// ["network-reservation"].
	Capabilities []string
	// Restrictions accumulate during delegation, e.g.
	// ["valid-for-rar:RAR-17"].
	Restrictions []string
}

// capAttrsMagic opens the capability extension's payload, which is
// wire-encoded like every other signed value: 1=community
// 2=capabilities (repeated) 3=restrictions (repeated).
const capAttrsMagic = 0xE7

// appendBinary appends the attributes' canonical encoding.
func (a *CapabilityAttrs) appendBinary(buf []byte) []byte {
	buf = append(buf, capAttrsMagic, wire.Version)
	buf = wire.AppendString(buf, 1, a.Community)
	buf = appendRepeated(buf, 2, a.Capabilities)
	return appendRepeated(buf, 3, a.Restrictions)
}

// appendRepeated appends one field per entry, empty entries included.
func appendRepeated(buf []byte, field uint32, list []string) []byte {
	for _, s := range list {
		buf = wire.AppendTag(buf, field, wire.TBytes)
		buf = wire.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// decodeCapabilityAttrs is the reverse of appendBinary.
func decodeCapabilityAttrs(raw []byte) (CapabilityAttrs, error) {
	var a CapabilityAttrs
	fields, err := wire.Header(raw, capAttrsMagic)
	if err != nil {
		return a, fmt.Errorf("pki: decode capability attrs: %w", err)
	}
	d := wire.Dec{Buf: fields}
	for d.More() {
		f, wt := d.Tag()
		switch {
		case f == 1 && wt == wire.TBytes:
			a.Community = d.String()
		case f == 2 && wt == wire.TBytes:
			a.Capabilities = append(a.Capabilities, d.String())
		case f == 3 && wt == wire.TBytes:
			a.Restrictions = append(a.Restrictions, d.String())
		default:
			d.Skip(wt)
		}
	}
	if err := d.Err(); err != nil {
		return CapabilityAttrs{}, fmt.Errorf("pki: decode capability attrs: %w", err)
	}
	return a, nil
}

// subsetOf reports whether every capability in a also appears in b.
func subsetOf(a, b []string) bool {
	set := make(map[string]bool, len(b))
	for _, c := range b {
		set[c] = true
	}
	for _, c := range a {
		if !set[c] {
			return false
		}
	}
	return true
}

// containsAll reports whether every string in a also appears in b.
func containsAll(a, b []string) bool { return subsetOf(a, b) }

// ProxyKey is the key pair whose public half is embedded in a
// CAS-issued capability certificate and whose private half the user
// holds to sign the first delegation step, which is how it proves
// possession (Neuman's proxy-based authorization).
type ProxyKey struct {
	Private identity.PrivateKey
}

// NewProxyKey generates a fresh proxy key pair.
func NewProxyKey() (*ProxyKey, error) {
	priv, err := identity.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("pki: generating proxy key: %w", err)
	}
	return &ProxyKey{Private: priv}, nil
}

// Public returns the public proxy key.
func (p *ProxyKey) Public() identity.PublicKey { return p.Private.Public() }

// CapabilityCertificate is an X.509v3 certificate flagged as carrying
// capability attributes. The subject public key is either a proxy key
// (CAS-issued certificates) or the real public key of the delegate
// (delegated certificates), exactly as §6.5 of the paper describes.
type CapabilityCertificate struct {
	*Certificate
	Attrs CapabilityAttrs
}

func capabilityExtensions(attrs CapabilityAttrs) []pkix.Extension {
	return []pkix.Extension{
		{Id: OIDCapabilityFlag, Value: []byte{0xff}},
		{Id: OIDCapabilityAttrs, Value: attrs.appendBinary(nil)},
	}
}

// issueCapability builds and signs a capability certificate.
// issuerDN/issuerKey sign; subjectDN/subjectPub are bound.
func issueCapability(issuerDN identity.DN, issuerKey identity.PrivateKey, subjectDN identity.DN, subjectPub identity.PublicKey, attrs CapabilityAttrs, validity time.Duration) (*CapabilityCertificate, error) {
	if issuerKey == nil {
		return nil, fmt.Errorf("pki: nil issuer key for capability from %s", issuerDN)
	}
	if subjectPub == nil {
		return nil, fmt.Errorf("pki: nil subject key for capability to %s", subjectDN)
	}
	serial, err := rand.Int(rand.Reader, big.NewInt(1<<62))
	if err != nil {
		return nil, fmt.Errorf("pki: capability serial: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:    serial,
		Subject:         dnToName(subjectDN),
		NotBefore:       time.Now().Add(-time.Minute),
		NotAfter:        time.Now().Add(validity),
		ExtraExtensions: capabilityExtensions(attrs),
	}
	// The synthetic parent supplies only the issuer name; the signing key
	// is the issuer's (possibly proxy) private key. KeyUsage stays zero so
	// CreateCertificate does not demand CA key usage: capability
	// certificates are issued by end entities, per the paper.
	parent := &x509.Certificate{Subject: dnToName(issuerDN)}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, parent, subjectPub.Crypto(), issuerKey.Signer())
	if err != nil {
		return nil, fmt.Errorf("pki: issuing capability cert %s -> %s: %w", issuerDN, subjectDN, err)
	}
	cert, err := ParseCapabilityCertificate(der)
	if err != nil {
		return nil, err
	}
	return cert, nil
}

// IssueCommunityCapability is what a community authorization server
// (CAS) does at "grid-login": it issues a capability certificate whose
// subject is the user, whose subject public key is the user's public
// *proxy* key, and whose extension carries the community capabilities.
func IssueCommunityCapability(casDN identity.DN, casKey *identity.KeyPair, userDN identity.DN, proxy *ProxyKey, attrs CapabilityAttrs, validity time.Duration) (*CapabilityCertificate, error) {
	if casKey == nil {
		return nil, fmt.Errorf("pki: nil CAS key")
	}
	if proxy == nil {
		return nil, fmt.Errorf("pki: nil proxy key")
	}
	return issueCapability(casDN, casKey.Private, userDN, proxy.Public(), attrs, validity)
}

// Delegate creates the next certificate in a cascaded-authorization
// chain: the holder of signerKey (the private key matching the subject
// public key of the previous certificate) issues a new capability
// certificate to delegateDN, binding the delegate's *real* public key
// and appending restrictions. Capabilities may only shrink. The
// delegation is valid for delegationValidity.
func Delegate(prev *CapabilityCertificate, signerDN identity.DN, signerKey identity.PrivateKey, delegateDN identity.DN, delegatePub identity.PublicKey, extraRestrictions []string) (*CapabilityCertificate, error) {
	if prev == nil {
		return nil, fmt.Errorf("pki: delegate from nil certificate")
	}
	attrs := CapabilityAttrs{
		Community:    prev.Attrs.Community,
		Capabilities: append([]string(nil), prev.Attrs.Capabilities...),
		Restrictions: append(append([]string(nil), prev.Attrs.Restrictions...), extraRestrictions...),
	}
	return issueCapability(signerDN, signerKey, delegateDN, delegatePub, attrs, delegationValidity)
}

// delegationValidity is how long a delegated capability certificate is
// valid.
const delegationValidity = 24 * time.Hour

// ParseCapabilityCertificate parses DER and requires the capability
// flag extension to be present.
func ParseCapabilityCertificate(der []byte) (*CapabilityCertificate, error) {
	cert, err := ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	attrs, ok, err := ExtractCapabilityAttrs(cert.Cert)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("pki: certificate for %s is not a capability certificate", cert.SubjectDN())
	}
	return &CapabilityCertificate{Certificate: cert, Attrs: attrs}, nil
}

// ExtractCapabilityAttrs pulls the capability payload out of an x509
// certificate. ok is false when the capability flag is absent.
func ExtractCapabilityAttrs(cert *x509.Certificate) (CapabilityAttrs, bool, error) {
	flagged := false
	var attrs CapabilityAttrs
	var havePayload bool
	for _, ext := range cert.Extensions {
		switch {
		case ext.Id.Equal(OIDCapabilityFlag):
			flagged = true
		case ext.Id.Equal(OIDCapabilityAttrs):
			var err error
			if attrs, err = decodeCapabilityAttrs(ext.Value); err != nil {
				return CapabilityAttrs{}, false, err
			}
			havePayload = true
		}
	}
	if !flagged {
		return CapabilityAttrs{}, false, nil
	}
	if !havePayload {
		return CapabilityAttrs{}, false, fmt.Errorf("pki: capability flag present but attrs extension missing")
	}
	return attrs, true, nil
}

// CapabilityChain is the ordered list of capability certificates a hop
// accumulates during signalling: index 0 is the CAS-issued certificate,
// each following entry is the delegation to the next broker. Figure 7
// of the paper shows chains of length 1 (user), 2 (BB-A), 3 (BB-B) and
// 4 (BB-C).
type CapabilityChain []*CapabilityCertificate

// VerifyOptions configures chain verification.
type VerifyOptions struct {
	// CASKey is the trusted public key of the community authorization
	// server that must anchor the chain.
	CASKey identity.PublicKey
	// At is the evaluation time (zero means time.Now()).
	At time.Time
	// RequireRestriction, when non-empty, requires every delegated
	// certificate (index >= 1) to carry this restriction, implementing
	// the "valid for RAR" scoping of §6.5.
	RequireRestriction string
}

// Verify performs the §6.5 policy-engine checks over the chain:
//
//  1. the CAS issued the first certificate (signature by CASKey);
//  2. every subsequent certificate is signed by the private key
//     matching the subject public key of its predecessor (proxy key for
//     step 1, broker keys afterwards);
//  3. capabilities never grow and restrictions never shrink along the
//     chain (no entity changed them inappropriately);
//  4. validity windows contain the evaluation time.
//
// It returns the effective attributes at the end of the chain (the
// capabilities usable by the final holder).
func (c CapabilityChain) Verify(opts VerifyOptions) (CapabilityAttrs, error) {
	if len(c) == 0 {
		return CapabilityAttrs{}, fmt.Errorf("pki: empty capability chain")
	}
	if opts.CASKey == nil {
		return CapabilityAttrs{}, fmt.Errorf("pki: no trusted CAS key")
	}
	at := opts.At
	if at.IsZero() {
		at = time.Now()
	}
	if err := c[0].CheckSignedBy(opts.CASKey); err != nil {
		return CapabilityAttrs{}, fmt.Errorf("pki: chain root not signed by trusted CAS: %w", err)
	}
	for i, cert := range c {
		if !cert.ValidAt(at) {
			return CapabilityAttrs{}, fmt.Errorf("pki: chain certificate %d (%s) expired or not yet valid", i, cert.SubjectDN())
		}
		if i == 0 {
			continue
		}
		prev := c[i-1]
		signer := prev.PublicKey()
		if signer == nil {
			return CapabilityAttrs{}, fmt.Errorf("pki: chain certificate %d: %w", i-1, identity.ErrKeyAlgorithm)
		}
		if err := cert.CheckSignedBy(signer); err != nil {
			return CapabilityAttrs{}, fmt.Errorf("pki: delegation %d (%s -> %s) not signed by predecessor subject key: %w",
				i, cert.IssuerDN(), cert.SubjectDN(), err)
		}
		if cert.IssuerDN() != prev.SubjectDN() {
			return CapabilityAttrs{}, fmt.Errorf("pki: delegation %d issuer %s does not match predecessor subject %s",
				i, cert.IssuerDN(), prev.SubjectDN())
		}
		if !subsetOf(cert.Attrs.Capabilities, prev.Attrs.Capabilities) {
			return CapabilityAttrs{}, fmt.Errorf("pki: delegation %d expands capabilities", i)
		}
		if cert.Attrs.Community != prev.Attrs.Community {
			return CapabilityAttrs{}, fmt.Errorf("pki: delegation %d changes community %q -> %q", i, prev.Attrs.Community, cert.Attrs.Community)
		}
		if !containsAll(prev.Attrs.Restrictions, cert.Attrs.Restrictions) {
			return CapabilityAttrs{}, fmt.Errorf("pki: delegation %d drops restrictions", i)
		}
		if opts.RequireRestriction != "" && !containsAll([]string{opts.RequireRestriction}, cert.Attrs.Restrictions) {
			return CapabilityAttrs{}, fmt.Errorf("pki: delegation %d lacks required restriction %q", i, opts.RequireRestriction)
		}
	}
	return c[len(c)-1].Attrs, nil
}

// DecodeCapabilityChain parses a chain from its certificates' DER
// blobs, in chain order.
func DecodeCapabilityChain(ders [][]byte) (CapabilityChain, error) {
	chain := make(CapabilityChain, 0, len(ders))
	for i, der := range ders {
		cert, err := ParseCapabilityCertificate(der)
		if err != nil {
			return nil, fmt.Errorf("pki: chain element %d: %w", i, err)
		}
		chain = append(chain, cert)
	}
	return chain, nil
}
