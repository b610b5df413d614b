package pki

import (
	"crypto/sha256"
	"sync"
)

// certCacheBound is the most parsed certificates a CertCache holds: a
// broker meets its neighbours, the brokers upstream of them and its own
// users again and again, and a few hundred of each cover a busy one.
const certCacheBound = 512

// CertCache remembers parsed certificates by the SHA-256 digest of
// their DER encoding, so a verifier that meets the same long-lived
// certificate in every request parses it once. An entry is a pure
// function of its key: a hit saves the parse and nothing else, and
// every check on the certificate (validity window, subject, trust)
// still belongs to the caller on every use. The zero value is ready.
type CertCache struct {
	mu    sync.Mutex
	certs map[[sha256.Size]byte]*Certificate
}

// Get returns the certificate parsed earlier from exactly these bytes.
func (c *CertCache) Get(der []byte) (*Certificate, bool) {
	key := sha256.Sum256(der)
	c.mu.Lock()
	defer c.mu.Unlock()
	cert, ok := c.certs[key]
	return cert, ok
}

// Add keeps cert, which the caller must not modify afterwards (nor the
// bytes of cert.DER). At the bound an arbitrary entry makes room.
func (c *CertCache) Add(cert *Certificate) {
	key := sha256.Sum256(cert.DER)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.certs == nil {
		c.certs = make(map[[sha256.Size]byte]*Certificate)
	}
	putBounded(c.certs, key, cert)
}

// putBounded sets m[k] = v; a new key arriving at certCacheBound first
// evicts an arbitrary entry.
func putBounded[V any](m map[[sha256.Size]byte]V, k [sha256.Size]byte, v V) {
	if _, ok := m[k]; !ok && len(m) >= certCacheBound {
		for victim := range m {
			delete(m, victim)
			break
		}
	}
	m[k] = v
}
