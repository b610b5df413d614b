// Package envelope implements the nested signed message structure at
// the heart of the paper's inter-BB signalling protocol (§6.4):
//
//	RAR_U     = sign_U({res_spec, DN_BBA, Capability_Cert'_CAS, Capability_Cert'_U})
//	RAR_A     = sign_BBA({RAR_U, cert_U, DN_BBB, Capability_Cert'_A})
//	RAR_{N+1} = sign_BB{N+1}({RAR_N, cert_N, DN_BB{N+2}, Capability_Cert'_{N+1}})
//
// Each hop wraps the message it received inside a new envelope, adds
// the upstream entity's certificate (learned from the mutually
// authenticated channel), names the next hop, attaches any additional
// policy information, and signs the result. The destination can unwrap
// the onion, verifying every layer, and recover the full signalling
// path ("The signatures both assert the authenticity of the information
// and allows for the tracking the path taken by a request as it moves
// from BB to BB").
package envelope

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
	"e2eqos/internal/wire"
)

// Envelope is one layer of the nested structure. Payload is the
// canonical binary encoding of the layer body; Signature is the
// signer's signature over exactly those bytes.
type Envelope struct {
	// SignerDN names the entity that signed this layer.
	SignerDN identity.DN
	// Payload is the canonical binary encoding of the Body (see
	// binwire.go), kept verbatim from sealing to verification so the
	// signature never depends on re-marshal stability. An inner
	// envelope nests as a field of its wrapper's payload, so wrapping
	// grows the message additively, not multiplicatively.
	Payload []byte
	// Signature is SignerDN's signature over Payload.
	Signature []byte
	// text, when set, holds the same bytes as Payload: the slice of the
	// onion's one string copy that a layer decoded under it gets, so
	// decoding this layer's body copies no DN either.
	text string
}

// Body is the content of one envelope layer. Exactly one of Inner or
// Request is set: the innermost layer carries the raw request, every
// outer layer carries the wrapped inner envelope.
type Body struct {
	// Inner is the envelope received from upstream, absent in the
	// innermost (user) layer.
	Inner *Envelope
	// Request is the application payload of the innermost layer.
	Request []byte
	// UpstreamCertDER carries the certificate of the entity that
	// produced Inner (cert_U, cert_A, ... in the paper), as learned
	// from the TLS handshake with the upstream hop.
	UpstreamCertDER []byte
	// NextHopDN is the DN of the downstream BB this layer is addressed
	// to (DN_BBB, DN_BBC, ...). Naming the next hop in the signed body
	// is what lets the destination audit the intended path and lets a
	// downstream domain confirm that its upstream peer approved the SLA
	// ("BB_A ... did approve the SLA with domain B by listing the DN of
	// BB_B in its request").
	NextHopDN identity.DN
	// CapabilityDERs are the capability certificates this hop adds
	// (Capability_Cert'_N): normally the single delegation of the
	// received capability to the next hop; the user layer carries two
	// (the CAS-issued certificate plus the delegation to the first
	// broker). Optional ("Note that the delegation is only performed
	// when capabilities are transported").
	CapabilityDERs [][]byte
	// PolicyInfo carries additional signed policy attributes the hop
	// appends (constraints from a policy server, SLS parameters for
	// downstream domains, cost offers, ...). The protocol is
	// deliberately syntax-agnostic, so this is opaque key/value data.
	PolicyInfo map[string]string
	// Timestamp records when the layer was created.
	Timestamp time.Time
}

// Seal signs body with the given key and returns the envelope layer.
// The signature covers the body's canonical binary encoding.
func Seal(signer *identity.KeyPair, body Body) (*Envelope, error) {
	if body.Timestamp.IsZero() {
		body.Timestamp = time.Now()
	}
	payload := appendBody(make([]byte, 0, bodySize(&body)), &body)
	sig, err := signer.Sign(payload)
	if err != nil {
		return nil, fmt.Errorf("envelope: sign: %w", err)
	}
	return &Envelope{SignerDN: signer.DN, Payload: payload, Signature: sig}, nil
}

// verify checks the layer's signature over its payload bytes.
func (e *Envelope) verify(pub identity.PublicKey) error {
	if err := identity.Verify(pub, e.Payload, e.Signature); err != nil {
		return fmt.Errorf("envelope: layer signed by %s: %w", e.SignerDN, err)
	}
	return nil
}

func (e *Envelope) peekBody(text string) (*Body, error) {
	body, err := decodeBody(e.Payload, text)
	if err != nil {
		return nil, fmt.Errorf("envelope: body signed by %s: %w", e.SignerDN, err)
	}
	return body, nil
}

// Layer is one verified stratum of an unwrapped envelope chain, ordered
// outermost (most recent hop) first.
type Layer struct {
	SignerDN identity.DN
	Body     *Body
}

// Chain is the fully verified onion: Layers[0] is the outermost
// (signed by the last BB before the verifier), Layers[len-1] the
// innermost (signed by the user). Request is the innermost payload.
type Chain struct {
	Layers  []Layer
	Request []byte
}

// PathDNs returns the signer DNs from the user outward:
// [user, BB_A, BB_B, ...]. This is the signalling-path trace the
// signatures provide.
func (c *Chain) PathDNs() []identity.DN {
	out := make([]identity.DN, 0, len(c.Layers))
	for i := len(c.Layers) - 1; i >= 0; i-- {
		out = append(out, c.Layers[i].SignerDN)
	}
	return out
}

// Capabilities returns the capability certificate chain accumulated
// along the path, ordered from the user's CAS certificate outward —
// ready for pki.CapabilityChain verification.
func (c *Chain) Capabilities() (pki.CapabilityChain, error) {
	var ders [][]byte
	for i := len(c.Layers) - 1; i >= 0; i-- {
		ders = append(ders, c.Layers[i].Body.CapabilityDERs...)
	}
	return pki.DecodeCapabilityChain(ders)
}

// KeyResolver resolves the public key to verify the layer at depth
// (0 is the outermost) signed by dn. The certDER hint is the certificate
// the NEXT outer layer attached for this signer (cert_N in the paper);
// it is nil for the outermost layer, whose key the verifier knows from
// the TLS handshake, and for an inner layer whose wrapper attached none.
//
// Unwrap calls it once per layer. A call that carries a hint may come
// from any goroutine, alongside other such calls, and before the layers
// outside it have verified: it must depend on its arguments only and
// leave nothing behind. A call without a hint — the one that may ask a
// directory — is made only once every layer outside has verified, and
// never beside another call without a hint.
type KeyResolver func(depth int, dn identity.DN, certDER []byte) (identity.PublicKey, error)

// Unwrap peels and verifies every layer of the onion and returns the
// chain only if every layer verified; the error is the one a walk from
// the outside in, one layer at a time, would have met first.
//
// The outermost layer is resolved, verified and decoded on its own, so
// not one byte inside the neighbour's envelope is decoded before the
// neighbour's signature holds. The layers inside it are then decoded,
// and their keys resolved and signatures checked by the caller and up
// to min(GOMAXPROCS, layers)-1 helper goroutines. A layer without a
// certificate hint is a flush point: its key is asked for only after
// every layer outside it has verified.
func Unwrap(outer *Envelope, resolve KeyResolver) (*Chain, error) {
	if outer == nil {
		return nil, fmt.Errorf("envelope: empty chain")
	}
	envs := append(make([]*Envelope, 0, 8), outer)
	chain := &Chain{Layers: make([]Layer, 0, 8)}
	check := func(d int) error {
		env := envs[d]
		var hint []byte
		if d > 0 {
			hint = chain.Layers[d-1].Body.UpstreamCertDER
		}
		pub, err := resolve(d, env.SignerDN, hint)
		if err != nil {
			return fmt.Errorf("envelope: resolving key for layer %d (%s): %w", d, env.SignerDN, err)
		}
		if err := env.verify(pub); err != nil {
			return fmt.Errorf("envelope: layer %d: %w", d, err)
		}
		return nil
	}
	if err := check(0); err != nil {
		return nil, err
	}

	// Decode inward, in place: every layer's bytes stay where outer's
	// payload has them, and one string copy of that payload, made now
	// that its signature holds, serves the DNs of every layer inside.
	// after is what the walk ran into where it stopped; it is reported
	// only if every layer found on the way verifies.
	var after error
	text := string(outer.Payload)
	for env := outer; ; text = env.text { // an inner layer's slice of it
		body, err := env.peekBody(text)
		chain.Layers = append(chain.Layers, Layer{SignerDN: env.SignerDN, Body: body})
		if err != nil {
			after = fmt.Errorf("envelope: layer %d: %w", len(envs)-1, err)
			break
		}
		if body.Inner == nil {
			if body.Request == nil {
				after = fmt.Errorf("envelope: innermost layer (%s) carries no request", env.SignerDN)
			}
			chain.Request = body.Request
			break
		}
		if len(envs) == maxDepth {
			after = fmt.Errorf("envelope: chain deeper than %d layers", maxDepth)
			break
		}
		env = body.Inner
		envs = append(envs, env)
	}

	// One run of layers at a time: a run starts at layer 1 or at a
	// flush point and ends before the next flush point.
	for start := 1; start < len(envs); {
		end := start + 1
		for end < len(envs) && chain.Layers[end-1].Body.UpstreamCertDER != nil {
			end++
		}
		if err := checkRun(start, end, check); err != nil {
			return nil, err
		}
		start = end
	}
	if after != nil {
		return nil, after
	}
	return chain, nil
}

// checkRun runs check on layers [start, end) and returns the error of
// the outermost layer that failed. The caller takes layer start, then
// draws from the cursor it shares with the helpers, so a helper that
// wakes late finds the work done. With one layer or one processor it
// starts no goroutine.
func checkRun(start, end int, check func(d int) error) error {
	workers := min(runtime.GOMAXPROCS(0), end-start)
	if workers <= 1 {
		for d := start; d < end; d++ {
			if err := check(d); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		errs   = make([]error, end-start)
		next   atomic.Int64 // the next layer to hand out
		failed atomic.Int64 // the outermost layer known to have failed
		wg     sync.WaitGroup
	)
	next.Store(int64(start + 1))
	failed.Store(int64(end))
	run := func(d int) {
		if int64(d) > failed.Load() {
			return // a walk from the outside would have stopped before d
		}
		if errs[d-start] = check(d); errs[d-start] == nil {
			return
		}
		for f := failed.Load(); int64(d) < f; f = failed.Load() {
			if failed.CompareAndSwap(f, int64(d)) {
				break
			}
		}
	}
	draw := func() {
		for {
			d := int(next.Add(1)) - 1
			if d >= end {
				return
			}
			run(d)
		}
	}
	wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go func() {
			defer wg.Done()
			draw()
		}()
	}
	run(start)
	draw()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// maxDepth bounds the number of nested layers Unwrap accepts,
// protecting against maliciously deep onions. Inner layers are decoded
// before they are verified, so this is also the most unauthenticated
// decoding one request can ask for.
const maxDepth = 64

// AppendField appends the envelope's binary form as a length-delimited
// field, the length — known before a byte of the envelope is written —
// first: a body nests its inner envelope, and a frame encoder writes the
// onion straight into its own buffer, without an encoded copy between.
func (e *Envelope) AppendField(buf []byte, field uint32) []byte {
	buf = wire.AppendTag(buf, field, wire.TBytes)
	buf = wire.AppendUvarint(buf, uint64(envelopeSize(e)))
	return appendEnvelope(buf, e)
}

// Decode reads the envelope bytes that AppendField wraps, in place: the
// envelope's Payload and Signature, and every bytes field of the bodies
// later decoded out of it, are sub-slices of data. The caller must own data for as long as it uses
// them, and nothing that outlives data's owner may keep one without
// copying it (DESIGN.md §6.6, "Who owns a frame").
func Decode(data []byte) (*Envelope, error) {
	return decodeEnvelope(wire.Dec{Buf: data})
}

// WireSize returns the encoded size in bytes, used by the Figure 7 /
// §6.4 message-growth experiments and by encoders that write the
// length before the envelope.
func (e *Envelope) WireSize() int { return envelopeSize(e) }
