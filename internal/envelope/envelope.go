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
	// sealed is the buffer a seal wrote Payload and Signature into, one
	// behind the other; a later SealInto reuses it. A decoded envelope
	// has none.
	sealed []byte
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
	// Claim is the reservation handle a forwarding broker admitted the
	// request under, written into the layer it signs onward: the
	// destination lists every layer's claim in the grant it signs
	// (DESIGN.md §6.11, "Why a grant is one signature"). Empty in the
	// user's layer. Decoded, it is a sub-slice of the frame like the
	// body's other bytes.
	Claim []byte
	// Timestamp records when the layer was created.
	Timestamp time.Time
}

// Seal signs body with the given key and returns the envelope layer.
// The signature covers the body's canonical binary encoding.
func Seal(signer *identity.KeyPair, body Body) (*Envelope, error) {
	e := new(Envelope)
	if err := SealInto(e, signer, &body); err != nil {
		return nil, err
	}
	return e, nil
}

// SealInto is Seal into e, whatever e held before: the payload and the
// signature behind it are written into one buffer, the one an earlier
// seal of e wrote into when that is large enough, else a new one of
// exactly the layer's size. A zero body.Timestamp is set to now.
func SealInto(e *Envelope, signer *identity.KeyPair, body *Body) error {
	if body.Timestamp.IsZero() {
		body.Timestamp = time.Now()
	}
	n := bodySize(body)
	buf := e.sealed[:0]
	if cap(buf) < n+identity.SignatureSize {
		buf = make([]byte, 0, n+identity.SignatureSize)
	}
	buf = appendBody(buf, body)
	buf, err := signer.AppendSign(buf, buf)
	if err != nil {
		return fmt.Errorf("envelope: sign: %w", err)
	}
	*e = Envelope{SignerDN: signer.DN, Payload: buf[:n:n], Signature: buf[n:], sealed: buf}
	return nil
}

// verify checks the layer's signature over its payload bytes.
func (e *Envelope) verify(pub identity.PublicKey) error {
	if err := identity.Verify(pub, e.Payload, e.Signature); err != nil {
		return fmt.Errorf("envelope: layer signed by %s: %w", e.SignerDN, err)
	}
	return nil
}

// peekBody decodes e's body into b and the envelope nested in it, if
// any, into inner, their DNs through n; hasInner reports whether there
// was one. b.Inner is left for the caller to point at wherever it keeps
// inner.
func (e *Envelope) peekBody(b *Body, inner *Envelope, n *names) (hasInner bool, err error) {
	if hasInner, err = decodeBody(b, inner, e.Payload, n); err != nil {
		return false, fmt.Errorf("envelope: body signed by %s: %w", e.SignerDN, err)
	}
	return hasInner, nil
}

// Layer is one stratum of an unwrapped envelope chain. Env and Body are
// held by value: a chain decodes into the layer array it already has.
type Layer struct {
	Env  Envelope
	Body Body
}

// Chain is the opened onion: Layers[0] is the outermost (signed by the
// last BB before the verifier), Layers[len-1] the innermost (signed by
// the user), and each layer's Body.Inner points at the next layer's
// Env. Request is the innermost payload. After Open, layer 0 has
// verified, and the layers inside it either verified too or were
// vouched for on its signature (Vouched).
//
// A Chain is reusable. Open decodes into the arrays the chain already
// has, and Reset drops every reference into the frame the last onion
// was decoded from while keeping them; a verifier that pools chains
// allocates nothing per layer once they have grown.
type Chain struct {
	Layers  []Layer
	Request []byte
	run     run
	names   names
	vouched int // inner layers the last Open accepted unchecked
}

// run is the state of Open while it checks layers: the resolver, and
// the run of layers the caller and its helper goroutines share.
type run struct {
	resolve    KeyResolver
	start, end int
	errs       []error      // layer start+i's error at i
	next       atomic.Int64 // the next layer to hand out
	failed     atomic.Int64 // the outermost layer known to have failed
	verified   atomic.Int64 // signatures checked since the last Reset
	wg         sync.WaitGroup
}

// PathDNs returns the signer DNs from the user outward:
// [user, BB_A, BB_B, ...]. This is the signalling-path trace the
// signatures provide.
func (c *Chain) PathDNs() []identity.DN {
	out := make([]identity.DN, 0, len(c.Layers))
	for i := len(c.Layers) - 1; i >= 0; i-- {
		out = append(out, c.Layers[i].Env.SignerDN)
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

// Verified returns how many layer signatures the last Open checked:
// every layer, or layer 0 alone when it vouched for the rest.
func (c *Chain) Verified() int { return int(c.run.verified.Load()) }

// Vouched returns how many inner layers the last Open accepted on the
// signature of layer 0 without checking their own: len(Layers)-1 when
// its Auditor said no, else 0.
func (c *Chain) Vouched() int { return c.vouched }

// Reset drops everything the chain holds of the onion it last
// unwrapped — every sub-slice of its frame, every DN, every error — and
// keeps the arrays.
func (c *Chain) Reset() {
	for i := range c.Layers {
		c.Layers[i].Env = Envelope{}
		c.Layers[i].Body.reset()
	}
	c.Layers = c.Layers[:0]
	c.Request = nil
	c.names = names{}
	clear(c.run.errs[:cap(c.run.errs)])
	c.run.verified.Store(0)
	c.vouched = 0
}

// reset zeroes b but keeps its capability array and policy map.
func (b *Body) reset() {
	clear(b.CapabilityDERs)
	clear(b.PolicyInfo)
	*b = Body{CapabilityDERs: b.CapabilityDERs[:0], PolicyInfo: b.PolicyInfo}
}

// push appends a layer holding env, reusing the slot the array may
// already have (and the capability array and policy map in it).
func (c *Chain) push(env *Envelope) {
	if n := len(c.Layers); n < cap(c.Layers) {
		c.Layers = c.Layers[:n+1]
	} else {
		c.Layers = append(c.Layers, Layer{})
	}
	c.Layers[len(c.Layers)-1].Env = *env
}

// KeyResolver resolves the public key to verify the layer at depth
// (0 is the outermost) signed by dn. The certDER hint is the certificate
// the NEXT outer layer attached for this signer (cert_N in the paper);
// it is nil for the outermost layer, whose key the verifier knows from
// the TLS handshake, and for an inner layer whose wrapper attached none.
//
// Open calls ResolveKey once per layer it checks. A call that carries a hint
// may come from any goroutine, alongside other such calls, and before
// the layers outside it have verified: it must depend on its arguments
// only and leave nothing behind. A call without a hint — the one that
// may ask a directory — is made only once every layer outside has
// verified, and never beside another call without a hint.
type KeyResolver interface {
	ResolveKey(depth int, dn identity.DN, certDER []byte) (identity.PublicKey, error)
}

// An Auditor decides, once an onion has decoded in full, whether the
// layers inside the outermost are checked as well (DESIGN.md §6.11). It
// is asked once per Open, on the caller's goroutine, after layer 0 has
// verified and before any inner key is resolved; it may read c.
type Auditor interface {
	Audit(c *Chain) bool
}

// Open peels the onion into c and verifies it; the error is the one a
// walk from the outside in, one layer at a time, would have met first.
// What c held before is dropped first. After an error c holds no
// verified chain, only what the caller must Reset before it lets go of
// outer's frame.
//
// Every DN decoded from the layers inside outer comes from dns when it
// holds those bytes, and is a copy of its own when it does not; a nil
// dns copies every DN. The layers' policy attributes, if any, are cut
// from one string copy of outer's payload.
//
// The outermost layer is resolved, verified and decoded on its own, so
// not one byte inside the neighbour's envelope is decoded before the
// neighbour's signature holds. The layers inside it are then decoded,
// and there is one decision: once the onion has decoded without error,
// audit says whether the inner layers are checked. If it says no, Open
// accepts them on layer 0's signature, which Vouched then counts. An
// onion that does not decode, and every onion under a nil audit, has
// every layer checked: their keys resolved and signatures checked by
// the caller and up to min(GOMAXPROCS, layers)-1 helper goroutines. A
// layer without a certificate hint is a flush point: its key is asked
// for only after every layer outside it has verified.
func (c *Chain) Open(outer *Envelope, dns *DNTable, resolve KeyResolver, audit Auditor) error {
	c.Reset()
	if outer == nil {
		return fmt.Errorf("envelope: empty chain")
	}
	c.run.resolve, c.names.table, c.names.frame = resolve, dns, outer.Payload
	err := c.peel(outer, audit)
	c.run.resolve, c.names.table, c.names.frame = nil, nil, nil
	return err
}

func (c *Chain) peel(outer *Envelope, audit Auditor) error {
	c.push(outer)
	if err := c.check(0); err != nil {
		return err
	}

	// Decode inward, in place: every layer's bytes stay where outer's
	// payload has them, and c.names makes its strings. after is what the
	// walk ran into where it stopped; it is reported only if every layer
	// found on the way verifies.
	var (
		after error
		inner Envelope
	)
	for d := 0; ; d++ {
		l := &c.Layers[d]
		hasInner, err := l.Env.peekBody(&l.Body, &inner, &c.names)
		if err != nil {
			after = fmt.Errorf("envelope: layer %d: %w", d, err)
			break
		}
		if !hasInner {
			if l.Body.Request == nil {
				after = fmt.Errorf("envelope: innermost layer (%s) carries no request", l.Env.SignerDN)
			}
			c.Request = l.Body.Request
			break
		}
		if len(c.Layers) == maxDepth {
			after = fmt.Errorf("envelope: chain deeper than %d layers", maxDepth)
			break
		}
		c.push(&inner)
	}
	// The array has stopped growing: link each layer to the next.
	for d := 1; d < len(c.Layers); d++ {
		c.Layers[d-1].Body.Inner = &c.Layers[d].Env
	}
	// The one decision: an onion that decoded cleanly and that its
	// auditor passes on is accepted on layer 0's signature.
	if after == nil && audit != nil && !audit.Audit(c) {
		c.vouched = len(c.Layers) - 1
		return nil
	}

	// One run of layers at a time: a run starts at layer 1 or at a
	// flush point and ends before the next flush point.
	for start := 1; start < len(c.Layers); {
		end := start + 1
		for end < len(c.Layers) && c.Layers[end-1].Body.UpstreamCertDER != nil {
			end++
		}
		if err := c.checkRun(start, end); err != nil {
			return err
		}
		start = end
	}
	return after
}

// check resolves layer d's key and verifies its signature.
func (c *Chain) check(d int) error {
	env := &c.Layers[d].Env
	var hint []byte
	if d > 0 {
		hint = c.Layers[d-1].Body.UpstreamCertDER
	}
	pub, err := c.run.resolve.ResolveKey(d, env.SignerDN, hint)
	if err != nil {
		return fmt.Errorf("envelope: resolving key for layer %d (%s): %w", d, env.SignerDN, err)
	}
	c.run.verified.Add(1)
	if err := env.verify(pub); err != nil {
		return fmt.Errorf("envelope: layer %d: %w", d, err)
	}
	return nil
}

// checkRun checks layers [start, end) and returns the error of the
// outermost layer that failed. The caller takes layer start, then
// draws from the cursor it shares with the helpers, so a helper that
// wakes late finds the work done. With one layer or one processor it
// starts no goroutine. It returns only once every helper is done with
// c.
func (c *Chain) checkRun(start, end int) error {
	workers := min(runtime.GOMAXPROCS(0), end-start)
	if workers <= 1 {
		for d := start; d < end; d++ {
			if err := c.check(d); err != nil {
				return err
			}
		}
		return nil
	}
	r := &c.run
	r.start, r.end = start, end
	if n := end - start; cap(r.errs) < n {
		r.errs = make([]error, n)
	} else {
		r.errs = r.errs[:n]
		clear(r.errs)
	}
	r.next.Store(int64(start + 1))
	r.failed.Store(int64(end))
	r.wg.Add(workers - 1)
	for i := 1; i < workers; i++ {
		go help()
		helpers <- c
	}
	c.checkLayer(start)
	c.draw()
	r.wg.Wait()
	for _, err := range r.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// helpers hands each helper goroutine the chain it was started for:
// started on a function that captures nothing, a helper costs no
// allocation. Each send is matched by one goroutine started just before
// it, so a send that finds the buffer full only waits for a helper
// already on its way. The buffer holds what brokers sharing a process
// hand out at once — an unwrap hands out at most GOMAXPROCS-1 — so the
// caller goes on to its own layers without waiting for the scheduler.
var helpers = make(chan *Chain, 64)

// help takes one chain and draws layers from its run until none is
// left.
func help() {
	c := <-helpers
	c.draw()
	c.run.wg.Done()
}

// draw checks layers from the shared cursor until the run is handed
// out.
func (c *Chain) draw() {
	for {
		d := int(c.run.next.Add(1)) - 1
		if d >= c.run.end {
			return
		}
		c.checkLayer(d)
	}
}

// checkLayer checks layer d of the run unless a layer outside it is
// known to have failed, and records its failure.
func (c *Chain) checkLayer(d int) {
	r := &c.run
	if int64(d) > r.failed.Load() {
		return // a walk from the outside would have stopped before d
	}
	if r.errs[d-r.start] = c.check(d); r.errs[d-r.start] == nil {
		return
	}
	for f := r.failed.Load(); int64(d) < f; f = r.failed.Load() {
		if r.failed.CompareAndSwap(f, int64(d)) {
			break
		}
	}
}

// maxDepth bounds the number of nested layers Open accepts,
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

// DecodeInto reads the envelope bytes that AppendField wraps into e, in
// place: the envelope's Payload and Signature, and every bytes field of
// the bodies later decoded out of it, are sub-slices of data. The caller
// must own data for as long as it uses them, and nothing that outlives
// data's owner may keep one without copying it (DESIGN.md §6.6, "Who
// owns a frame"); e should live no longer than data's owner either, as a
// served reserve's payload, which decodes its envelope into itself, does.
// SignerDN is signer when the envelope names it — the channel peer a
// verifier will hold it to — and a copy of the name otherwise. Once it
// succeeds, e holds nothing it held before.
func DecodeInto(e *Envelope, data []byte, signer identity.DN) error {
	dn, err := decodeEnvelope(e, wire.Dec{Buf: data})
	if err != nil {
		return err
	}
	e.SignerDN = signer
	if string(dn) != string(signer) {
		e.SignerDN = identity.DN(dn)
	}
	return nil
}

// WireSize returns the encoded size in bytes, used by the Figure 7 /
// §6.4 message-growth experiments and by encoders that write the
// length before the envelope.
func (e *Envelope) WireSize() int { return envelopeSize(e) }
