package core

import (
	"fmt"

	"e2eqos/internal/cas"
	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
)

// UserAgent holds a user's long-term identity and grid-login
// credential and builds the innermost RAR layer.
type UserAgent struct {
	Key *identity.KeyPair
	// Cert is the user's identity certificate (cert_U in the paper),
	// issued by the user's home CA.
	Cert *pki.Certificate
	// Credential is the CAS capability credential obtained at
	// grid-login; nil when the user carries no capabilities.
	Credential *cas.Credential
}

// NewUserAgent bundles the user's material.
func NewUserAgent(key *identity.KeyPair, cert *pki.Certificate, cred *cas.Credential) (*UserAgent, error) {
	if key == nil {
		return nil, fmt.Errorf("core: user agent needs a key")
	}
	if cert != nil && cert.SubjectDN() != key.DN {
		return nil, fmt.Errorf("core: certificate subject %s does not match key DN %s", cert.SubjectDN(), key.DN)
	}
	return &UserAgent{Key: key, Cert: cert, Credential: cred}, nil
}

// BuildRAR constructs RAR_U for the given spec, addressed to the
// source-domain broker whose certificate firstHop is (known to the
// user out of band or from the channel handshake). When the agent
// holds a CAS credential, it delegates the capability to the first
// broker: a new capability certificate with subject firstHop, the
// broker's real public key, the restriction "valid for this RAR", and
// a signature by the private proxy key (§6.5).
func (ua *UserAgent) BuildRAR(spec *Spec, firstHop *pki.Certificate) (*envelope.Envelope, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.User != ua.Key.DN {
		return nil, fmt.Errorf("core: spec user %s does not match agent %s", spec.User, ua.Key.DN)
	}
	if firstHop == nil {
		return nil, fmt.Errorf("core: BuildRAR needs the first hop certificate")
	}
	body := envelope.Body{
		Request:   spec.AppendBinary(nil),
		NextHopDN: firstHop.SubjectDN(),
	}
	if ua.Credential != nil {
		hopPub := firstHop.PublicKey()
		if hopPub == nil {
			return nil, fmt.Errorf("core: first hop certificate: %w", identity.ErrKeyAlgorithm)
		}
		delegated, err := pki.Delegate(
			ua.Credential.Certificate,
			ua.Key.DN,
			ua.Credential.Proxy.Private,
			firstHop.SubjectDN(),
			hopPub,
			[]string{spec.RestrictionFor()},
		)
		if err != nil {
			return nil, fmt.Errorf("core: delegating capability to %s: %w", firstHop.SubjectDN(), err)
		}
		body.CapabilityDERs = [][]byte{ua.Credential.Certificate.DER, delegated.DER}
	}
	return envelope.Seal(ua.Key, body)
}
