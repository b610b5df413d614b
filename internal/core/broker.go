package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
)

// KeyDirectory resolves a signer's public key out of band — the
// paper's §6.4 alternative to inline certificate distribution:
// "Maintain a certificate repository accessible through secure LDAP."
// internal/certrepo provides the reference implementation.
type KeyDirectory interface {
	LookupKey(dn identity.DN) (identity.PublicKey, error)
}

// ErrCapabilityHolder refuses a request whose capability chain is
// delegated to someone other than the broker verifying it. Each earlier
// holder proved its key by signing the next delegation; the final
// holder is the verifier, so naming it is the whole possession check.
var ErrCapabilityHolder = errors.New("core: capability chain is not delegated to this broker")

// Broker is the protocol half of a bandwidth broker: it verifies
// inbound RARs through the transitive trust model and extends granted
// requests toward the next hop.
type Broker struct {
	Key *identity.KeyPair
	// Trust holds the broker's local trust decisions: pinned SLA peers,
	// trusted CAs, and the introducer-depth policy.
	Trust *pki.TrustStore
	// Directory, when set, resolves keys for layers that arrive
	// without an introducing certificate (out-of-band distribution).
	Directory KeyDirectory
	// DNs, when set, holds the DNs the onions this broker verifies name
	// besides their users', its topology's brokers, so that decoding one
	// costs no copy of it (envelope.DNTable). It is read, never written.
	DNs *envelope.DNTable
	// OmitIntroducerCerts makes Extend leave the upstream certificate
	// out of the wrapped layer: downstream verifiers must then use a
	// Directory. This is the ablation knob for the §6.4 comparison of
	// inline vs repository key distribution.
	OmitIntroducerCerts bool
	// MaxRequestAge bounds how old the innermost (user-signed) layer
	// may be at verification time, limiting the replay window of a
	// captured RAR. Zero disables the check.
	MaxRequestAge time.Duration
	// certs holds the parsed form of the channel and introduced
	// certificates of chains this broker has verified. It is the
	// broker's own: brokers sharing a process do not warm each other.
	certs pki.CertCache
	// scratch pools the *verifyScratch that Verify works in; it too is
	// the broker's own.
	scratch sync.Pool
	// seals pools the envelopes Extend seals into and Recycle takes back.
	seals sync.Pool
}

// NewBroker assembles a protocol broker. cert, when given, must be
// key's certificate; the broker keeps only the key.
func NewBroker(key *identity.KeyPair, cert *pki.Certificate, trust *pki.TrustStore) (*Broker, error) {
	if key == nil || trust == nil {
		return nil, fmt.Errorf("core: broker needs key and trust store")
	}
	if cert != nil && cert.SubjectDN() != key.DN {
		return nil, fmt.Errorf("core: broker certificate subject %s does not match key %s", cert.SubjectDN(), key.DN)
	}
	return &Broker{Key: key, Trust: trust}, nil
}

// DN returns the broker identity.
func (b *Broker) DN() identity.DN { return b.Key.DN }

// VerifiedRequest is the result of successfully unwrapping and
// checking an inbound RAR.
type VerifiedRequest struct {
	// Spec is the user's original, signature-protected request.
	Spec *Spec
	// Path is the signalling path from the user outward
	// ([user, BB_A, BB_B, ...]); the paper's path tracing.
	Path []identity.DN
	// Capabilities is the accumulated delegation chain, ready for
	// policy-engine verification.
	Capabilities pki.CapabilityChain
	// Signatures is how many layer signatures verifying the request
	// checked: every layer at the end of the line and under Verify, the
	// channel peer's alone at a hop that vouched for the rest.
	Signatures int
	// Vouched is how many inner layers were accepted on the channel
	// peer's signature without a check of their own.
	Vouched int
	// Claims are the admission claims the broker layers carry,
	// Claims[i] the one Path[i+1] signed, empty where a layer carries
	// none (envelope.Body.Claim). Only a request whose every layer was
	// checked has them: nil when a layer was vouched for, and when no
	// layer carries a claim. They are sub-slices of the frame the
	// request came in, so whoever keeps one copies it.
	Claims [][]byte
}

// Verify unwraps an inbound envelope received over a mutually
// authenticated channel from channelPeer (with certificate
// channelPeerCert, as captured by the handshake) and audits every
// layer. The outermost layer must be signed by the channel peer; every
// inner layer's key is accepted through the introduction semantics —
// the already-verified wrapping layer embeds the signer's certificate —
// bounded by the trust store's introducer-depth policy.
func (b *Broker) Verify(env *envelope.Envelope, channelPeer identity.DN, channelPeerCert []byte, at time.Time) (*VerifiedRequest, error) {
	return b.Receive(env, channelPeer, channelPeerCert, at, "")
}

// Receive is Verify for a broker that may pass the request on
// (DESIGN.md §6.11). When the spec's signed destination is a domain
// other than transit, it checks the channel peer's layer alone and
// vouches for the layers inside on that signature; every check that
// needs no signature still runs, the introducer-depth bound included.
// A spec that ends at transit, one that does not decode, an empty
// transit and a broker with a Directory have every layer checked, as
// Verify does: vouching assumes inner keys the neighbour introduced.
func (b *Broker) Receive(env *envelope.Envelope, channelPeer identity.DN, channelPeerCert []byte, at time.Time, transit string) (*VerifiedRequest, error) {
	if env == nil {
		return nil, fmt.Errorf("core: nil envelope")
	}
	if env.SignerDN != channelPeer {
		return nil, fmt.Errorf("core: outer layer signed by %s but channel peer is %s", env.SignerDN, channelPeer)
	}
	if at.IsZero() {
		at = time.Now()
	}
	s, _ := b.scratch.Get().(*verifyScratch)
	if s == nil {
		s = new(verifyScratch)
	}
	s.b, s.channelPeerCert, s.at, s.maxDepth, s.transit = b, channelPeerCert, at, b.Trust.MaxIntroducerDepth(), transit
	verified, err := s.verify(env)
	s.release()
	b.scratch.Put(s)
	return verified, err
}

// verifyScratch is what one Verify works in besides what it returns:
// the chain it unwraps into, the certificates it meets for the first
// time, and the request's trust inputs. Each broker pools its own.
// Nothing a VerifiedRequest holds points into one, and release leaves
// it holding nothing of the request but the capacity of its arrays.
type verifyScratch struct {
	chain           envelope.Chain
	b               *Broker
	channelPeerCert []byte
	at              time.Time
	maxDepth        int
	// transit is the domain past which a request may be vouched for
	// ("" audits every layer); spec and specErr are what Audit decoded
	// of the request.
	transit string
	spec    *Spec
	specErr error
	// Certificates met for the first time wait here and enter the cache
	// only once the chain that carried them has verified. Inner layers
	// are resolved from several goroutines, hence the lock.
	freshMu sync.Mutex
	fresh   []*pki.Certificate
}

// release drops everything s holds of the request it served.
func (s *verifyScratch) release() {
	s.chain.Reset()
	clear(s.fresh)
	s.fresh = s.fresh[:0]
	s.b, s.channelPeerCert, s.at, s.maxDepth, s.transit = nil, nil, time.Time{}, 0, ""
	s.spec, s.specErr = nil, nil
}

// Audit is the chain's envelope.Auditor, the one decision of §6.11 in
// DESIGN.md. It decodes the spec and has every inner layer checked
// unless the spec sends the request on past s.transit. A spec that does
// not decode names no destination, so it is checked in full and
// refused as Verify refuses it. With a Directory, inner keys come from
// a repository rather than from certificates the neighbour embeds, so
// the neighbour could not have forged them and every layer is checked.
func (s *verifyScratch) Audit(c *envelope.Chain) bool {
	s.spec, s.specErr = DecodeSpec(c.Request)
	return s.transit == "" || s.b.Directory != nil || s.specErr != nil || s.spec.DestDomain == s.transit
}

func (s *verifyScratch) verify(env *envelope.Envelope) (*VerifiedRequest, error) {
	b, chain := s.b, &s.chain
	if err := chain.Open(env, b.DNs, s, s); err != nil {
		return nil, err
	}
	for _, cert := range s.fresh {
		b.certs.Add(cert)
	}
	if n := chain.Vouched(); n > s.maxDepth {
		// No inner key was resolved, so the bound the resolver keeps
		// is kept here, at the first layer past it.
		return nil, introducedTooDeep(s.maxDepth+1, s.maxDepth)
	}
	if err := b.checkPathNaming(chain); err != nil {
		return nil, err
	}
	inner := &chain.Layers[len(chain.Layers)-1]
	if b.MaxRequestAge > 0 {
		stamped := inner.Body.Timestamp
		if stamped.IsZero() {
			return nil, fmt.Errorf("core: innermost layer carries no timestamp")
		}
		if age := s.at.Sub(stamped); age > b.MaxRequestAge {
			return nil, fmt.Errorf("core: request is %s old, limit %s (replay window)", age, b.MaxRequestAge)
		}
	}
	spec := s.spec
	if s.specErr != nil {
		return nil, s.specErr
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("core: inbound spec: %w", err)
	}
	// The innermost layer must be signed by the user the spec names:
	// the signature over res_spec is the user's.
	if signer := inner.Env.SignerDN; signer != spec.User {
		return nil, fmt.Errorf("core: spec names user %s but innermost signature is by %s", spec.User, signer)
	}
	caps, err := chain.Capabilities()
	if err != nil {
		return nil, fmt.Errorf("core: capability chain: %w", err)
	}
	if n := len(caps); n > 0 && caps[n-1].SubjectDN() != b.Key.DN {
		return nil, fmt.Errorf("%w: it ends at %s, verifier is %s", ErrCapabilityHolder, caps[n-1].SubjectDN(), b.Key.DN)
	}
	return &VerifiedRequest{Spec: spec, Path: chain.PathDNs(), Capabilities: caps, Signatures: chain.Verified(), Vouched: chain.Vouched(), Claims: claims(chain)}, nil
}

// claims lists the broker layers' claims in path order, or nil: see
// VerifiedRequest.Claims.
func claims(chain *envelope.Chain) [][]byte {
	if chain.Vouched() > 0 {
		return nil
	}
	n := len(chain.Layers) - 1
	for d := 0; d < n; d++ {
		if len(chain.Layers[d].Body.Claim) > 0 {
			out := make([][]byte, n)
			for i := range out {
				out[i] = chain.Layers[n-1-i].Body.Claim
			}
			return out
		}
	}
	return nil
}

// introducedTooDeep refuses a layer past the introducer-depth limit.
func introducedTooDeep(depth, limit int) error {
	return fmt.Errorf("core: introduction depth %d exceeds local policy limit %d", depth, limit)
}

// parse returns der's parsed certificate, from the broker's cache or,
// parsed from a private copy (the parsed form may outlive this
// request), from the request's fresh list.
func (s *verifyScratch) parse(der []byte) (*pki.Certificate, error) {
	if cert, ok := s.b.certs.Get(der); ok {
		return cert, nil
	}
	cert, err := pki.ParseCertificate(append([]byte(nil), der...))
	if err != nil {
		return nil, err
	}
	s.freshMu.Lock()
	s.fresh = append(s.fresh, cert)
	s.freshMu.Unlock()
	return cert, nil
}

// ResolveKey is the chain's envelope.KeyResolver. The outermost layer
// is depth 0. Open may resolve inner layers that carry a certificate
// in any order and before the layers outside them have verified, so
// that branch reads its arguments and the cache and writes nothing but
// this request's fresh list.
func (s *verifyScratch) ResolveKey(depth int, dn identity.DN, certHint []byte) (identity.PublicKey, error) {
	b := s.b
	if depth == 0 {
		// The channel handshake authenticated this key.
		if pinned, ok := b.Trust.PeerKey(dn); ok {
			return pinned, nil
		}
		if s.channelPeerCert != nil {
			cert, err := s.parse(s.channelPeerCert)
			if err != nil {
				return nil, err
			}
			if cert.SubjectDN() != dn {
				return nil, fmt.Errorf("core: channel certificate subject %s does not match signer %s", cert.SubjectDN(), dn)
			}
			return b.Trust.DirectlyTrusted(cert, s.at)
		}
		return nil, fmt.Errorf("core: no trust path to channel peer %s", dn)
	}
	// Inner layers: the verified wrapping layer introduced this
	// signer by embedding its certificate.
	if depth > s.maxDepth {
		return nil, introducedTooDeep(depth, s.maxDepth)
	}
	if certHint == nil {
		if b.Directory != nil {
			pub, err := b.Directory.LookupKey(dn)
			if err != nil {
				return nil, fmt.Errorf("core: directory lookup for %s: %w", dn, err)
			}
			return pub, nil
		}
		return nil, fmt.Errorf("core: layer %d (%s) has no introducing certificate", depth, dn)
	}
	cert, err := s.parse(certHint)
	if err != nil {
		return nil, fmt.Errorf("core: introduced certificate for %s: %w", dn, err)
	}
	if cert.SubjectDN() != dn {
		return nil, fmt.Errorf("core: introduced certificate names %s, layer signed by %s", cert.SubjectDN(), dn)
	}
	if !cert.ValidAt(s.at) {
		return nil, fmt.Errorf("core: introduced certificate for %s not valid at %s", dn, s.at)
	}
	return cert.PublicKey(), nil
}

// checkPathNaming enforces the signed next-hop pointers: each layer
// must have been addressed to the entity that actually signed the
// next outer layer, and the outermost layer must be addressed to this
// broker. This is what lets a downstream domain confirm that its
// upstream peer approved the SLA path ("BB_A ... did approve the SLA
// with domain B by listing the DN of BB_B in its request").
func (b *Broker) checkPathNaming(chain *envelope.Chain) error {
	for i := len(chain.Layers) - 1; i >= 0; i-- {
		layer := &chain.Layers[i]
		want := b.Key.DN
		if i > 0 {
			want = chain.Layers[i-1].Env.SignerDN
		}
		if layer.Body.NextHopDN != want {
			return fmt.Errorf("core: layer signed by %s is addressed to %s, but next signer is %s",
				layer.Env.SignerDN, layer.Body.NextHopDN, want)
		}
	}
	return nil
}

// Additions is what a hop appends to the layer it signs onward (PAPER.md
// §1 item 1b, "can append additional policy information"): its
// admission claim, the handle it admitted the request under, and any
// policy attributes for the domains below.
type Additions struct {
	Claim      string
	PolicyInfo map[string]string
}

// Extend wraps a verified inbound request for the next hop: it embeds
// the upstream peer's certificate (introducing its key downstream),
// names the next hop, re-delegates the capability chain to the next
// broker and appends this domain's additions, if any, then signs the
// whole layer (RAR_{N+1} of §6.4). The layer, inner envelope and
// signature included, is written into one buffer from the broker's
// pool: a caller done with the envelope may hand it back (Recycle), and
// one that keeps it need not.
func (b *Broker) Extend(inbound *envelope.Envelope, upstreamCert []byte, verified *VerifiedRequest, nextHop *pki.Certificate, add *Additions) (*envelope.Envelope, error) {
	if inbound == nil || verified == nil {
		return nil, fmt.Errorf("core: Extend needs the inbound envelope and its verification")
	}
	if nextHop == nil {
		return nil, fmt.Errorf("core: Extend needs the next hop certificate")
	}
	if b.OmitIntroducerCerts {
		upstreamCert = nil
	}
	body := envelope.Body{
		Inner:           inbound,
		UpstreamCertDER: upstreamCert,
		NextHopDN:       nextHop.SubjectDN(),
	}
	if add != nil {
		body.Claim, body.PolicyInfo = []byte(add.Claim), add.PolicyInfo
	}
	if len(verified.Capabilities) > 0 {
		hopPub := nextHop.PublicKey()
		if hopPub == nil {
			return nil, fmt.Errorf("core: next hop certificate: %w", identity.ErrKeyAlgorithm)
		}
		// Verify saw to it that the chain ends at this broker.
		last := verified.Capabilities[len(verified.Capabilities)-1]
		delegated, err := pki.Delegate(last, b.Key.DN, b.Key.Private, nextHop.SubjectDN(), hopPub, nil)
		if err != nil {
			return nil, fmt.Errorf("core: delegating capability to %s: %w", nextHop.SubjectDN(), err)
		}
		body.CapabilityDERs = [][]byte{delegated.DER}
	}
	sealed, _ := b.seals.Get().(*envelope.Envelope)
	if sealed == nil {
		sealed = new(envelope.Envelope)
	}
	if err := envelope.SealInto(sealed, b.Key, &body); err != nil {
		b.seals.Put(sealed)
		return nil, err
	}
	return sealed, nil
}

// Recycle hands back an envelope Extend returned, once nothing reads it
// any more: the next Extend seals into its buffer. An envelope sent on
// is done with once the call that sent it has returned, retries
// included, since a frame is encoded from it and copied before the call
// returns (DESIGN.md §6.6, "Who owns a frame").
func (b *Broker) Recycle(e *envelope.Envelope) {
	b.seals.Put(e)
}
