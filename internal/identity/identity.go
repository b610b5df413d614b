// Package identity provides the naming and signing primitives shared by
// every entity in the architecture: users, bandwidth brokers, policy
// servers, community authorization servers and certificate authorities.
//
// Entities are identified by an X.500-style distinguished name (DN) such
// as "/O=Grid/OU=DomainA/CN=bb-a". Each entity owns one key pair used
// both for TLS channel authentication and for the detached message
// signatures that implement the paper's nested RAR envelopes.
//
// The signature scheme is this package's decision and nobody else's:
// pure Ed25519 (RFC 8032; RFC 8410 inside X.509 and PKCS#8). Messages are
// signed as they are, with no pre-hash, so the signature on an X.509
// certificate (PureEd25519 over the TBS bytes) and the signature on an
// envelope layer go through the same Verify. No other package imports a
// signature algorithm; they hold the key types below and call these
// functions (imports_test.go keeps it so).
package identity

import (
	"bytes"
	"crypto"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"
	"strings"
)

// DN is an X.500-style distinguished name. The canonical form is a
// "/"-joined sequence of attribute=value pairs, e.g.
// "/O=Grid/OU=DomainA/CN=Alice".
type DN string

// NewDN assembles a DN from organization, organizational unit and common
// name; empty components are omitted.
func NewDN(org, unit, common string) DN {
	var b strings.Builder
	if org != "" {
		fmt.Fprintf(&b, "/O=%s", org)
	}
	if unit != "" {
		fmt.Fprintf(&b, "/OU=%s", unit)
	}
	if common != "" {
		fmt.Fprintf(&b, "/CN=%s", common)
	}
	return DN(b.String())
}

// CommonName extracts the CN component, or "" when absent.
func (d DN) CommonName() string {
	for _, part := range strings.Split(string(d), "/") {
		if strings.HasPrefix(part, "CN=") {
			return strings.TrimPrefix(part, "CN=")
		}
	}
	return ""
}

// Org extracts the O component, or "" when absent.
func (d DN) Org() string {
	for _, part := range strings.Split(string(d), "/") {
		if strings.HasPrefix(part, "O=") {
			return strings.TrimPrefix(part, "O=")
		}
	}
	return ""
}

// Unit extracts the OU component, or "" when absent.
func (d DN) Unit() string {
	for _, part := range strings.Split(string(d), "/") {
		if strings.HasPrefix(part, "OU=") {
			return strings.TrimPrefix(part, "OU=")
		}
	}
	return ""
}

// Valid reports whether the DN has at least one non-empty component in
// canonical form.
func (d DN) Valid() bool {
	if d == "" || !strings.HasPrefix(string(d), "/") {
		return false
	}
	for rest := string(d[1:]); ; {
		part, more, found := strings.Cut(rest, "/")
		eq := strings.IndexByte(part, '=')
		if eq <= 0 || eq == len(part)-1 {
			return false
		}
		if !found {
			return true
		}
		rest = more
	}
}

func (d DN) String() string { return string(d) }

// ErrKeyAlgorithm is wrapped by every refusal of a key, certificate or
// key file made for another signature algorithm.
var ErrKeyAlgorithm = errors.New("identity: key is not Ed25519")

// PublicKey is the verifying half of an entity's key. Values arrive in
// certificates off the wire, so nothing may assume the length is right.
type PublicKey []byte

// PrivateKey is the signing half.
type PrivateKey []byte

// check reports a key of the wrong length as an error; the standard
// library answers one with a panic.
func (p PublicKey) check() error {
	if len(p) != ed25519.PublicKeySize {
		return fmt.Errorf("identity: public key of %d bytes, want %d", len(p), ed25519.PublicKeySize)
	}
	return nil
}

func (k PrivateKey) check() error {
	if len(k) != ed25519.PrivateKeySize {
		return fmt.Errorf("identity: private key of %d bytes, want %d", len(k), ed25519.PrivateKeySize)
	}
	return nil
}

// Equal reports whether two public keys are the same key. An empty
// value is no key and equals nothing.
func (p PublicKey) Equal(o PublicKey) bool { return len(p) != 0 && bytes.Equal(p, o) }

// Public returns the verifying half of k, nil for a malformed key. It
// shares k's memory.
func (k PrivateKey) Public() PublicKey {
	if k.check() != nil {
		return nil
	}
	return PublicKey(k[ed25519.SeedSize:])
}

// Crypto and Signer hand the keys to crypto/x509 and crypto/tls in the
// form those packages recognise the algorithm by. Signer is for keys
// from GenerateKey or ParsePrivateKey, which are well-formed.
func (p PublicKey) Crypto() crypto.PublicKey { return ed25519.PublicKey(p) }
func (k PrivateKey) Signer() crypto.Signer   { return ed25519.PrivateKey(k) }

// SubjectKey returns the subject public key of a parsed certificate.
func SubjectKey(cert *x509.Certificate) (PublicKey, error) {
	pub, ok := cert.PublicKey.(ed25519.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: subject key is %s", ErrKeyAlgorithm, cert.PublicKeyAlgorithm)
	}
	return PublicKey(pub), nil
}

// GenerateKey creates a fresh private key.
func GenerateKey() (PrivateKey, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	return PrivateKey(priv), err
}

// KeyPair is a private key bound to a DN.
type KeyPair struct {
	DN      DN
	Private PrivateKey
}

// GenerateKeyPair creates a fresh key pair for the given DN.
func GenerateKeyPair(dn DN) (*KeyPair, error) {
	if !dn.Valid() {
		return nil, fmt.Errorf("identity: invalid DN %q", dn)
	}
	priv, err := GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("identity: generating key for %s: %w", dn, err)
	}
	return &KeyPair{DN: dn, Private: priv}, nil
}

// Public returns the public half of the pair.
func (k *KeyPair) Public() PublicKey { return k.Private.Public() }

// SignatureSize is the length of every signature Sign makes.
const SignatureSize = ed25519.SignatureSize

// Sign signs msg as the pair's DN. The same key and message always give
// the same signature.
func (k *KeyPair) Sign(msg []byte) ([]byte, error) { return k.AppendSign(nil, msg) }

// AppendSign appends the pair's signature over msg to dst and returns
// the extended slice. msg may be dst itself: the signature is made
// before a byte is appended, so it lands behind the bytes it covers.
// A signature only appended costs no allocation of its own.
func (k *KeyPair) AppendSign(dst, msg []byte) ([]byte, error) {
	if k == nil {
		return nil, errors.New("identity: nil key pair")
	}
	if err := k.Private.check(); err != nil {
		return nil, fmt.Errorf("identity: signing as %s: %w", k.DN, err)
	}
	return append(dst, ed25519.Sign(ed25519.PrivateKey(k.Private), msg)...), nil
}

// Verify checks sig over msg against pub. A key or signature of the
// wrong length is an error like any other bad signature, never a panic.
func Verify(pub PublicKey, msg, sig []byte) error {
	if err := pub.check(); err != nil {
		return err
	}
	if !ed25519.Verify(ed25519.PublicKey(pub), msg, sig) {
		return errors.New("identity: signature verification failed")
	}
	return nil
}

// MarshalPrivateKey encodes a private key in PKCS#8 DER form.
func MarshalPrivateKey(priv PrivateKey) ([]byte, error) {
	if err := priv.check(); err != nil {
		return nil, err
	}
	der, err := x509.MarshalPKCS8PrivateKey(ed25519.PrivateKey(priv))
	if err != nil {
		return nil, fmt.Errorf("identity: marshal private key: %w", err)
	}
	return der, nil
}

// ParsePrivateKey decodes a PKCS#8 DER private key.
func ParsePrivateKey(der []byte) (PrivateKey, error) {
	priv, err := x509.ParsePKCS8PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("identity: parse private key: %w", err)
	}
	ed, ok := priv.(ed25519.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("%w: private key is %T", ErrKeyAlgorithm, priv)
	}
	return PrivateKey(ed), nil
}
