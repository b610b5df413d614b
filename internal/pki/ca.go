// Package pki implements the certificate infrastructure the signalling
// protocol depends on: certificate authorities, X.509v3 end-entity
// certificates, capability certificates carried in X.509v3 extensions
// (as issued by a community authorization server), Neuman-style
// cascaded capability delegation using proxy keys, and per-entity trust
// stores implementing the paper's web-of-trust key-introducer model.
//
// All certificates are real crypto/x509 certificates signed with the
// one scheme internal/identity owns, so they interoperate with
// crypto/tls for the mutually authenticated inter-BB channels.
package pki

import (
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"time"

	"e2eqos/internal/identity"
)

// dnToName maps our canonical DN form onto a pkix.Name.
func dnToName(dn identity.DN) pkix.Name {
	name := pkix.Name{CommonName: dn.CommonName()}
	if o := dn.Org(); o != "" {
		name.Organization = []string{o}
	}
	if ou := dn.Unit(); ou != "" {
		name.OrganizationalUnit = []string{ou}
	}
	return name
}

// NameToDN reconstructs the canonical DN from a pkix.Name.
func NameToDN(name pkix.Name) identity.DN {
	org, unit := "", ""
	if len(name.Organization) > 0 {
		org = name.Organization[0]
	}
	if len(name.OrganizationalUnit) > 0 {
		unit = name.OrganizationalUnit[0]
	}
	return identity.NewDN(org, unit, name.CommonName)
}

// CA is a certificate authority. A CA issues identity certificates for
// the users and bandwidth brokers of one trust community.
type CA struct {
	key  *identity.KeyPair
	cert *x509.Certificate
	der  []byte
}

// NewCA creates a self-signed root CA for the given DN.
func NewCA(dn identity.DN) (*CA, error) {
	kp, err := identity.GenerateKeyPair(dn)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               dnToName(dn),
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(10 * 365 * 24 * time.Hour),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, kp.Public().Crypto(), kp.Private.Signer())
	if err != nil {
		return nil, fmt.Errorf("pki: creating CA cert for %s: %w", dn, err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parsing CA cert: %w", err)
	}
	return &CA{key: kp, cert: cert, der: der}, nil
}

// LoadCA reconstructs a CA from persisted material (see the qosca
// tool). The key must match the certificate's public key.
func LoadCA(cert *Certificate, key *identity.KeyPair) (*CA, error) {
	if cert == nil || key == nil {
		return nil, fmt.Errorf("pki: LoadCA needs certificate and key")
	}
	pub := cert.PublicKey()
	if pub == nil || !pub.Equal(key.Public()) {
		return nil, fmt.Errorf("pki: CA key does not match certificate %s", cert.SubjectDN())
	}
	kp := &identity.KeyPair{DN: cert.SubjectDN(), Private: key.Private}
	return &CA{key: kp, cert: cert.Cert, der: cert.DER}, nil
}

// DN returns the CA's distinguished name.
func (ca *CA) DN() identity.DN { return ca.key.DN }

// Certificate returns the CA's self-signed certificate.
func (ca *CA) Certificate() *x509.Certificate { return ca.cert }

// CertificateDER returns the DER encoding of the CA certificate.
func (ca *CA) CertificateDER() []byte { return ca.der }

// Key exposes the CA key pair; used by daemons that also sign protocol
// messages with the CA identity (e.g. test fixtures).
func (ca *CA) Key() *identity.KeyPair { return ca.key }

func (ca *CA) nextSerial() *big.Int {
	serial, err := rand.Int(rand.Reader, big.NewInt(1).Lsh(big.NewInt(1), 120))
	if err != nil {
		// crypto/rand failure leaves no sound way to issue certificates.
		panic(fmt.Sprintf("pki: rand: %v", err))
	}
	return serial
}

// IssueIdentity issues an end-entity identity certificate binding dn to
// pub, valid for validity (or 1 year when zero). The certificate is
// suitable for TLS client and server authentication; hosts lists the
// DNS names to embed as SANs.
func (ca *CA) IssueIdentity(dn identity.DN, pub identity.PublicKey, validity time.Duration, hosts ...string) (*Certificate, error) {
	if !dn.Valid() {
		return nil, fmt.Errorf("pki: invalid subject DN %q", dn)
	}
	if pub == nil {
		return nil, fmt.Errorf("pki: nil public key for %s", dn)
	}
	if validity <= 0 {
		validity = 365 * 24 * time.Hour
	}
	tmpl := &x509.Certificate{
		SerialNumber: ca.nextSerial(),
		Subject:      dnToName(dn),
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(validity),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
		DNSNames:     append([]string{}, hosts...),
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.cert, pub.Crypto(), ca.key.Private.Signer())
	if err != nil {
		return nil, fmt.Errorf("pki: issuing identity cert for %s: %w", dn, err)
	}
	return ParseCertificate(der)
}

// Certificate couples a parsed x509 certificate with its DER encoding.
// It is not modified after construction, so one value may be shared
// between goroutines (and kept in a CertCache).
type Certificate struct {
	Cert *x509.Certificate
	DER  []byte
	// subject and issuer hold the canonical DNs of a certificate built
	// by this package; a literal leaves them empty and pays for the
	// conversion on every call.
	subject, issuer identity.DN
}

func newCertificate(cert *x509.Certificate, der []byte) *Certificate {
	return &Certificate{Cert: cert, DER: der, subject: NameToDN(cert.Subject), issuer: NameToDN(cert.Issuer)}
}

// SubjectDN returns the canonical subject DN.
func (c *Certificate) SubjectDN() identity.DN {
	if c.subject != "" {
		return c.subject
	}
	return NameToDN(c.Cert.Subject)
}

// IssuerDN returns the canonical issuer DN.
func (c *Certificate) IssuerDN() identity.DN {
	if c.issuer != "" {
		return c.issuer
	}
	return NameToDN(c.Cert.Issuer)
}

// PublicKey returns the subject public key. It is nil only for a
// Certificate literal around a certificate made for another signature
// algorithm; ParseCertificate refuses those.
func (c *Certificate) PublicKey() identity.PublicKey {
	pub, _ := identity.SubjectKey(c.Cert)
	return pub
}

// ParseCertificate decodes a DER certificate into our wrapper. A
// certificate whose subject key is of another signature algorithm is
// refused with identity.ErrKeyAlgorithm.
func ParseCertificate(der []byte) (*Certificate, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parse certificate: %w", err)
	}
	if _, err := identity.SubjectKey(cert); err != nil {
		return nil, fmt.Errorf("pki: certificate for %s: %w", NameToDN(cert.Subject), err)
	}
	return newCertificate(cert, der), nil
}

// CheckSignedBy verifies that c carries a valid signature by issuerPub
// over its TBS certificate. It deliberately does
// not enforce CA basic constraints: capability certificates are signed
// by end entities and proxy keys, exactly as the paper's delegation
// model requires.
func (c *Certificate) CheckSignedBy(issuerPub identity.PublicKey) error {
	if c == nil || c.Cert == nil {
		return fmt.Errorf("pki: nil certificate")
	}
	return identity.Verify(issuerPub, c.Cert.RawTBSCertificate, c.Cert.Signature)
}

// ValidAt reports whether the certificate validity window contains t.
func (c *Certificate) ValidAt(t time.Time) bool {
	return !t.Before(c.Cert.NotBefore) && !t.After(c.Cert.NotAfter)
}
