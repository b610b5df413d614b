package pki

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"e2eqos/internal/identity"
)

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

// DefaultIntroducerDepth is the introducer-chain depth a broker accepts
// when its configuration sets none.
const DefaultIntroducerDepth = 16

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
