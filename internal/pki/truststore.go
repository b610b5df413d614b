package pki

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"e2eqos/internal/identity"
)

// Introduction is one link of the paper's web-of-trust: an introducer
// vouches for a subject's certificate by signing it. In the signalling
// protocol each domain "adds the certificate of the upstream domain —
// known because of the SSL handshake — and signs it", so downstream
// domains accumulate a list of key introducers.
type Introduction struct {
	// IntroducerDN names the entity vouching for the certificate.
	IntroducerDN identity.DN
	// CertDER is the introduced certificate (DER).
	CertDER []byte
	// Signature is the introducer's signature over CertDER.
	Signature []byte
}

// NewIntroduction signs certDER with the introducer's key.
func NewIntroduction(introducer *identity.KeyPair, certDER []byte) (Introduction, error) {
	sig, err := introducer.Sign(certDER)
	if err != nil {
		return Introduction{}, err
	}
	return Introduction{IntroducerDN: introducer.DN, CertDER: certDER, Signature: sig}, nil
}

// TrustStore holds an entity's local trust decisions: the CA
// certificates it trusts directly, the peer certificates pinned via
// service level agreements (the paper: "This information includes the
// certificates of the peered BBs as well as the certificate of the
// issuing certificate authority"), and the maximum acceptable depth of
// an introducer chain ("Checking its own security policy which might
// limit the depth of an acceptable trust chain").
type TrustStore struct {
	mu sync.RWMutex
	// roots maps CA DN -> CA public key.
	roots map[identity.DN]identity.PublicKey
	// peers maps peer DN -> pinned public key (from SLA configuration
	// or a completed TLS handshake).
	peers map[identity.DN]identity.PublicKey
	// maxIntroducerDepth limits accepted introduction chains; 0 means
	// introductions are refused entirely.
	maxIntroducerDepth int
	// caChecked maps the DER digest of a certificate to the root key its
	// CA signature verified under, compared by value (Equal), so an entry
	// says nothing about a root with any other key. AddRoot empties it;
	// it holds at most certCacheBound entries.
	caChecked map[[sha256.Size]byte]identity.PublicKey
}

// NewTrustStore creates an empty store accepting introducer chains up
// to maxIntroducerDepth links.
func NewTrustStore(maxIntroducerDepth int) *TrustStore {
	return &TrustStore{
		roots:              make(map[identity.DN]identity.PublicKey),
		peers:              make(map[identity.DN]identity.PublicKey),
		maxIntroducerDepth: maxIntroducerDepth,
		caChecked:          make(map[[sha256.Size]byte]identity.PublicKey),
	}
}

// MaxIntroducerDepth returns the configured chain-depth limit.
func (t *TrustStore) MaxIntroducerDepth() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.maxIntroducerDepth
}

// SetMaxIntroducerDepth updates the chain-depth limit.
func (t *TrustStore) SetMaxIntroducerDepth(d int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.maxIntroducerDepth = d
}

// AddRoot trusts a CA directly.
func (t *TrustStore) AddRoot(ca *Certificate) error {
	pub := ca.PublicKey()
	if pub == nil {
		return fmt.Errorf("pki: CA %s: %w", ca.SubjectDN(), identity.ErrKeyAlgorithm)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roots[ca.SubjectDN()] = pub
	clear(t.caChecked)
	return nil
}

// PinPeer records a directly trusted peer key, as established by an SLA
// or a mutually authenticated handshake.
func (t *TrustStore) PinPeer(dn identity.DN, pub identity.PublicKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[dn] = pub
}

// PeerKey returns the pinned key for dn, if any.
func (t *TrustStore) PeerKey(dn identity.DN) (identity.PublicKey, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pub, ok := t.peers[dn]
	return pub, ok
}

// DirectlyTrusted resolves the public key for a certificate the store
// trusts without introductions: either the subject is a pinned peer
// with a matching key, or a trusted root CA signed the certificate. The
// CA signature over one exact DER encoding is checked once per root
// key and remembered; the validity window is checked on every call.
func (t *TrustStore) DirectlyTrusted(cert *Certificate, at time.Time) (identity.PublicKey, error) {
	if cert == nil {
		return nil, fmt.Errorf("pki: nil certificate")
	}
	if !cert.ValidAt(at) {
		return nil, fmt.Errorf("pki: certificate for %s not valid at %s", cert.SubjectDN(), at)
	}
	pub := cert.PublicKey()
	if pub == nil {
		return nil, fmt.Errorf("pki: certificate for %s: %w", cert.SubjectDN(), identity.ErrKeyAlgorithm)
	}
	// The lock covers the map reads only: the signature check runs
	// outside it, so a PinPeer or AddRoot waiting to write never holds up
	// the verifications queued behind it.
	digest := sha256.Sum256(cert.Cert.Raw) // the bytes CheckSignedBy reads from
	t.mu.RLock()
	pinned, isPeer := t.peers[cert.SubjectDN()]
	caKey, hasRoot := t.roots[cert.IssuerDN()]
	checked := hasRoot && t.caChecked[digest].Equal(caKey)
	t.mu.RUnlock()
	if checked || isPeer && pinned.Equal(pub) {
		return pub, nil
	}
	if hasRoot && cert.CheckSignedBy(caKey) == nil {
		t.mu.Lock()
		if t.roots[cert.IssuerDN()].Equal(caKey) {
			putBounded(t.caChecked, digest, caKey)
		}
		t.mu.Unlock()
		return pub, nil
	}
	return nil, fmt.Errorf("pki: no direct trust path to %s", cert.SubjectDN())
}

// ResolveKey resolves the public key of a certificate through the web
// of trust. The introductions are ordered from the verifier outward:
// introductions[0] must be signed by a directly trusted entity, and
// each following introduction by the subject of the previous one. The
// final introduction's certificate is the target. Direct trust is tried
// first (depth 0).
//
// This is the mechanism the destination BB uses to accept the source
// BB's key without a shared CA: "This web of trust allows each domain
// to access a list of key introducers when deciding whether to accept
// the public key stored in the certificate."
func (t *TrustStore) ResolveKey(target *Certificate, introductions []Introduction, at time.Time) (identity.PublicKey, int, error) {
	pub, err := t.DirectlyTrusted(target, at)
	if err == nil {
		return pub, 0, nil
	}
	if errors.Is(err, identity.ErrKeyAlgorithm) {
		return nil, 0, err
	}
	if len(introductions) == 0 {
		return nil, 0, fmt.Errorf("pki: %s not directly trusted and no introductions supplied", target.SubjectDN())
	}
	if len(introductions) > t.MaxIntroducerDepth() {
		return nil, 0, fmt.Errorf("pki: introduction chain depth %d exceeds local policy limit %d",
			len(introductions), t.MaxIntroducerDepth())
	}
	// The first introducer must be directly trusted.
	introducerKey, ok := t.PeerKey(introductions[0].IntroducerDN)
	if !ok {
		return nil, 0, fmt.Errorf("pki: first introducer %s is not directly trusted", introductions[0].IntroducerDN)
	}
	var lastCert *Certificate
	for i, intro := range introductions {
		if err := identity.Verify(introducerKey, intro.CertDER, intro.Signature); err != nil {
			return nil, 0, fmt.Errorf("pki: introduction %d by %s has invalid signature: %w", i, intro.IntroducerDN, err)
		}
		cert, err := ParseCertificate(intro.CertDER)
		if err != nil {
			return nil, 0, fmt.Errorf("pki: introduction %d: %w", i, err)
		}
		if !cert.ValidAt(at) {
			return nil, 0, fmt.Errorf("pki: introduced certificate %d for %s not valid at %s", i, cert.SubjectDN(), at)
		}
		// The introduced subject becomes the introducer of the next link.
		introducerKey = cert.PublicKey()
		lastCert = cert
		if i+1 < len(introductions) && introductions[i+1].IntroducerDN != cert.SubjectDN() {
			return nil, 0, fmt.Errorf("pki: introduction chain broken: link %d introduces %s but link %d claims introducer %s",
				i, cert.SubjectDN(), i+1, introductions[i+1].IntroducerDN)
		}
	}
	if lastCert.SubjectDN() != target.SubjectDN() {
		return nil, 0, fmt.Errorf("pki: introduction chain ends at %s, want %s", lastCert.SubjectDN(), target.SubjectDN())
	}
	if !lastCert.PublicKey().Equal(target.PublicKey()) {
		return nil, 0, fmt.Errorf("pki: introduced key for %s does not match presented certificate", target.SubjectDN())
	}
	return target.PublicKey(), len(introductions), nil
}
