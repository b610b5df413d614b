// Package certrepo implements the second key-distribution alternative
// of §6.4: "Maintain a certificate repository accessible through
// secure LDAP. Upon receipt of the reservation specification, C would
// extract the distinguished name (DN) of A from it, and would search
// in the certificate repository for the related public key. It is
// important to note that there has to be a strong trust relationship
// with the repository."
//
// The repository signs every answer, so a consumer needs exactly one
// trust decision (the repository key) instead of evaluating introducer
// chains. The trade-off — which the paper resolves in favour of
// inline certificates plus web-of-trust — is the online dependency and
// the single point of trust; this package exists so the ablation
// experiments can quantify the message-size side of that trade.
package certrepo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
)

// Repository stores certificates by subject DN and answers signed
// lookups. It is safe for concurrent use.
type Repository struct {
	key *identity.KeyPair

	mu    sync.RWMutex
	certs map[identity.DN]*pki.Certificate

	lookups atomic.Int64
}

// New creates an empty repository signing with key.
func New(key *identity.KeyPair) *Repository {
	return &Repository{key: key, certs: make(map[identity.DN]*pki.Certificate)}
}

// PublicKey is what consumers pin.
func (r *Repository) PublicKey() identity.PublicKey { return r.key.Public() }

// Publish stores (or replaces) the certificate for its subject.
func (r *Repository) Publish(cert *pki.Certificate) error {
	if cert == nil || cert.PublicKey() == nil {
		return fmt.Errorf("certrepo: invalid certificate")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.certs[cert.SubjectDN()] = cert
	return nil
}

// Lookups reports how many lookups were served (for the experiments'
// cost accounting).
func (r *Repository) Lookups() int64 { return r.lookups.Load() }

// Response is a signed lookup answer.
type Response struct {
	RepoDN  identity.DN
	Subject identity.DN
	CertDER []byte
	Issued  time.Time
	// Signature covers the canonical payload.
	Signature []byte
}

func responsePayload(repo, subject identity.DN, certDER []byte, issued time.Time) []byte {
	return append([]byte(fmt.Sprintf("certrepo|%s|%s|%d|", repo, subject, issued.UnixNano())), certDER...)
}

// Lookup answers a query for dn with a signed response.
func (r *Repository) Lookup(dn identity.DN) (*Response, error) {
	r.lookups.Add(1)
	r.mu.RLock()
	cert, ok := r.certs[dn]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("certrepo: no certificate for %s", dn)
	}
	issued := time.Now()
	sig, err := r.key.Sign(responsePayload(r.key.DN, dn, cert.DER, issued))
	if err != nil {
		return nil, fmt.Errorf("certrepo: signing response: %w", err)
	}
	return &Response{
		RepoDN:    r.key.DN,
		Subject:   dn,
		CertDER:   cert.DER,
		Issued:    issued,
		Signature: sig,
	}, nil
}

// maxResponseAge bounds how old a lookup answer may be when it is
// checked. A directory checks the answer it has just asked for, so the
// bound only refuses an answer replayed from an earlier lookup.
const maxResponseAge = time.Minute

// VerifyResponse checks a signed lookup answer against the pinned
// repository key and the freshness bound maxResponseAge.
func VerifyResponse(resp *Response, repoKey identity.PublicKey) (*pki.Certificate, error) {
	if resp == nil {
		return nil, fmt.Errorf("certrepo: nil response")
	}
	if time.Since(resp.Issued) > maxResponseAge {
		return nil, fmt.Errorf("certrepo: response for %s is stale", resp.Subject)
	}
	payload := responsePayload(resp.RepoDN, resp.Subject, resp.CertDER, resp.Issued)
	if err := identity.Verify(repoKey, payload, resp.Signature); err != nil {
		return nil, fmt.Errorf("certrepo: response signature: %w", err)
	}
	cert, err := pki.ParseCertificate(resp.CertDER)
	if err != nil {
		return nil, err
	}
	if cert.SubjectDN() != resp.Subject {
		return nil, fmt.Errorf("certrepo: response subject %s does not match certificate %s", resp.Subject, cert.SubjectDN())
	}
	return cert, nil
}

// Directory adapts a trusted repository to the core.KeyDirectory
// interface: the broker consults it when a signalling layer arrives
// without an introducing certificate.
type Directory struct {
	Repo *Repository
	// TrustedKey is the pinned repository key (normally Repo's own,
	// but kept explicit so tests can model key mismatch).
	TrustedKey identity.PublicKey
}

// LookupKey resolves dn via the repository, verifying the signed
// response and the certificate validity window.
func (d *Directory) LookupKey(dn identity.DN) (identity.PublicKey, error) {
	if d == nil || d.Repo == nil || d.TrustedKey == nil {
		return nil, fmt.Errorf("certrepo: directory not configured")
	}
	resp, err := d.Repo.Lookup(dn)
	if err != nil {
		return nil, err
	}
	cert, err := VerifyResponse(resp, d.TrustedKey)
	if err != nil {
		return nil, err
	}
	if at := time.Now(); !cert.ValidAt(at) {
		return nil, fmt.Errorf("certrepo: certificate for %s not valid at %s", dn, at)
	}
	return cert.PublicKey(), nil
}
