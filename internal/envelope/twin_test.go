package envelope

import (
	"bytes"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"fmt"
	"math/big"
	mrand "math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
)

// serialTwin is the full walk as it stood before layers were checked
// concurrently: one layer at a time from the outside in, each resolved,
// verified and decoded before the next is looked at. It is the
// reference the full walk (Open with no Auditor) is judged against (as sweepTwin is for resv's
// ledger). Three things differ from the text it was copied from:
// resolve is handed the depth, which the resolver used to count for
// itself; the depth bound is exact (it admitted maxDepth+1 layers);
// layers are held by value, each linked to the next once the walk is
// done, as Open holds them; and every DN is a copy of its own.
func serialTwin(outer *Envelope, resolve KeyResolver) (*Chain, error) {
	chain := &Chain{}
	env := outer
	var certHint []byte
	for depth := 0; env != nil; depth++ {
		if depth >= maxDepth {
			return nil, fmt.Errorf("envelope: chain deeper than %d layers", maxDepth)
		}
		pub, err := resolve.ResolveKey(depth, env.SignerDN, certHint)
		if err != nil {
			return nil, fmt.Errorf("envelope: resolving key for layer %d (%s): %w", depth, env.SignerDN, err)
		}
		if err := env.verify(pub); err != nil {
			return nil, fmt.Errorf("envelope: layer %d: %w", depth, err)
		}
		chain.Layers = append(chain.Layers, Layer{Env: *env})
		l := &chain.Layers[depth]
		inner := &Envelope{}
		hasInner, err := l.Env.peekBody(&l.Body, inner, &names{})
		if err != nil {
			return nil, fmt.Errorf("envelope: layer %d: %w", depth, err)
		}
		if !hasInner {
			if l.Body.Request == nil {
				return nil, fmt.Errorf("envelope: innermost layer (%s) carries no request", env.SignerDN)
			}
			chain.Request = l.Body.Request
			for d := 1; d < len(chain.Layers); d++ {
				chain.Layers[d-1].Body.Inner = &chain.Layers[d].Env
			}
			return chain, nil
		}
		certHint = l.Body.UpstreamCertDER
		env = inner
	}
	return nil, fmt.Errorf("envelope: empty chain")
}

// twinSigner is one entity of the differential fixture: a key and the
// certificates a wrapping hop may attach for it.
type twinSigner struct {
	key     *identity.KeyPair
	cert    []byte // valid at twinNow
	expired []byte // NotAfter before twinNow
	future  []byte // NotBefore after twinNow
}

const twinMaxLayers = 12

var (
	twinOnce    sync.Once
	twinSigners []*twinSigner // [0] is the user, the rest brokers in path order
	twinNow     time.Time
)

// twinFixture builds the signers once per process; the property test
// and the fuzz target share them.
func twinFixture(tb testing.TB) []*twinSigner {
	tb.Helper()
	twinOnce.Do(func() {
		twinNow = time.Now()
		ca, err := pki.NewCA(identity.NewDN("Grid", "Twin", "CA"))
		if err != nil {
			tb.Fatal(err)
		}
		issue := func(kp *identity.KeyPair, from, to time.Time) []byte {
			serial, err := rand.Int(rand.Reader, big.NewInt(1<<62))
			if err != nil {
				tb.Fatal(err)
			}
			tmpl := &x509.Certificate{
				SerialNumber: serial,
				Subject: pkix.Name{
					Organization:       []string{kp.DN.Org()},
					OrganizationalUnit: []string{kp.DN.Unit()},
					CommonName:         kp.DN.CommonName(),
				},
				NotBefore: from,
				NotAfter:  to,
				KeyUsage:  x509.KeyUsageDigitalSignature,
			}
			der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.Certificate(), kp.Public().Crypto(), ca.Key().Private.Signer())
			if err != nil {
				tb.Fatal(err)
			}
			return der
		}
		// One signer more than the deepest chain, so the outermost layer
		// always has a next hop to name.
		for i := 0; i <= twinMaxLayers; i++ {
			kp, err := identity.GenerateKeyPair(identity.NewDN("Grid", fmt.Sprintf("D%d", i), "signer"))
			if err != nil {
				tb.Fatal(err)
			}
			twinSigners = append(twinSigners, &twinSigner{
				key:     kp,
				cert:    issue(kp, twinNow.Add(-time.Hour), twinNow.Add(time.Hour)),
				expired: issue(kp, twinNow.Add(-2*time.Hour), twinNow.Add(-time.Hour)),
				future:  issue(kp, twinNow.Add(time.Hour), twinNow.Add(2*time.Hour)),
			})
		}
	})
	if len(twinSigners) == 0 {
		tb.Fatal("twin fixture failed to build")
	}
	return twinSigners
}

// twinVerifier is the verifier's side of a case, modelled on
// core.Broker.Verify's resolver: the outermost signer's key is known
// from the channel, an inner signer's comes from the certificate its
// wrapper attached — subject, validity window and key type checked —
// within an introduction-depth limit, and a layer without a certificate
// goes to the directory if there is one. lookups is every directory
// call in order; it is deliberately unguarded, so the race detector
// confirms that calls without a hint never run beside one another.
type twinVerifier struct {
	limit   int
	dir     map[identity.DN]identity.PublicKey // nil: no directory
	lookups []identity.DN
}

func (v *twinVerifier) ResolveKey(depth int, dn identity.DN, hint []byte) (identity.PublicKey, error) {
	if depth == 0 {
		for _, s := range twinSigners {
			if s.key.DN == dn {
				return s.key.Public(), nil
			}
		}
		return nil, fmt.Errorf("twin: no trust path to channel peer %s", dn)
	}
	if depth > v.limit {
		return nil, fmt.Errorf("twin: introduction depth %d exceeds local policy limit %d", depth, v.limit)
	}
	if hint == nil {
		if v.dir != nil {
			v.lookups = append(v.lookups, dn)
			pub, ok := v.dir[dn]
			if !ok {
				return nil, fmt.Errorf("twin: directory lookup for %s: no such entry", dn)
			}
			return pub, nil
		}
		return nil, fmt.Errorf("twin: layer %d (%s) has no introducing certificate", depth, dn)
	}
	cert, err := pki.ParseCertificate(hint)
	if err != nil {
		return nil, fmt.Errorf("twin: introduced certificate for %s: %w", dn, err)
	}
	if cert.SubjectDN() != dn {
		return nil, fmt.Errorf("twin: introduced certificate names %s, layer signed by %s", cert.SubjectDN(), dn)
	}
	if !cert.ValidAt(twinNow) {
		return nil, fmt.Errorf("twin: introduced certificate for %s not valid", dn)
	}
	pub := cert.PublicKey()
	if pub == nil {
		return nil, fmt.Errorf("twin: introduced certificate for %s: %w", dn, identity.ErrKeyAlgorithm)
	}
	return pub, nil
}

// A corruption is applied to one layer while the onion is built. The
// layers outside it are sealed afterwards with their real keys — a
// dishonest hop vouching for what it altered, as in
// TestUnwrapDetectsInnerTampering — so every layer outside the
// corrupted one verifies and the walk has to reach it to notice.
type corruption int

const (
	flipPayload   corruption = iota // one byte of the signed payload
	flipSignature                   // one byte of the signature
	flipSignerDN                    // one byte of the (unsigned) signer name
	flipNextHopDN                   // one byte of the next-hop name inside the payload
	flipCert                        // one byte of the certificate the wrapper attaches for this layer
	omitCert                        // the wrapper attaches no certificate for this layer
	expiredCert                     // the wrapper attaches an expired certificate
	futureCert                      // the wrapper attaches a not-yet-valid certificate
	signedGarbage                   // a truncated payload under a valid signature
	noRequest                       // innermost layer only: neither request nor inner
	numCorruptions
)

// twinCase is one generated chain with the verifier settings it is
// checked under.
type twinCase struct {
	outer   *Envelope
	limit   int
	dir     map[identity.DN]identity.PublicKey
	summary string
}

func flipByte(rng *mrand.Rand, b []byte) {
	if len(b) > 0 {
		b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
	}
}

// buildTwinChain seals a chain of the given number of layers, signer i
// (0 = the user) signing layer i counted from the inside, with
// corrupt[i] applied to that layer.
func buildTwinChain(tb testing.TB, rng *mrand.Rand, layers int, corrupt map[int]corruption) *Envelope {
	tb.Helper()
	signers := twinFixture(tb)
	var env *Envelope
	for i := 0; i < layers; i++ {
		c, bad := corrupt[i]
		body := Body{NextHopDN: signers[i+1].key.DN, Timestamp: twinNow}
		if i == 0 {
			if !(bad && c == noRequest) {
				body.Request = json.RawMessage(fmt.Sprintf(`{"mbps":%d}`, 1+rng.Intn(10)))
			}
		} else {
			body.Inner = env
			body.PolicyInfo = map[string]string{"hop": fmt.Sprint(i)}
			// The certificate this layer attaches introduces the signer
			// of the layer inside it, so that layer's corruption picks it.
			in := signers[i-1]
			body.UpstreamCertDER = in.cert
			if ic, ok := corrupt[i-1]; ok {
				switch ic {
				case omitCert:
					body.UpstreamCertDER = nil
				case expiredCert:
					body.UpstreamCertDER = in.expired
				case futureCert:
					body.UpstreamCertDER = in.future
				case flipCert:
					der := append([]byte(nil), in.cert...)
					flipByte(rng, der)
					body.UpstreamCertDER = der
				}
			}
		}
		sealed, err := Seal(signers[i].key, body)
		if err != nil {
			tb.Fatal(err)
		}
		env = sealed
		if !bad {
			continue
		}
		switch c {
		case flipPayload:
			flipByte(rng, env.Payload)
		case flipSignature:
			flipByte(rng, env.Signature)
		case flipSignerDN:
			dn := []byte(env.SignerDN)
			flipByte(rng, dn)
			env.SignerDN = identity.DN(dn)
		case flipNextHopDN:
			if at := bytes.Index(env.Payload, []byte(body.NextHopDN)); at >= 0 {
				flipByte(rng, env.Payload[at:at+len(body.NextHopDN)])
			}
		case signedGarbage:
			env.Payload = env.Payload[:1+rng.Intn(len(env.Payload)-1)]
			if env.Signature, err = signers[i].key.Sign(env.Payload); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return env
}

// genTwinCase draws one chain: its depth, zero, one or two corrupted
// layers, and the verifier's introduction limit and directory.
func genTwinCase(tb testing.TB, rng *mrand.Rand) twinCase {
	tb.Helper()
	signers := twinFixture(tb)
	layers := 1 + rng.Intn(twinMaxLayers)
	corrupt := map[int]corruption{}
	pick := func() {
		layer := rng.Intn(layers)
		c := corruption(rng.Intn(int(numCorruptions)))
		if c == noRequest {
			layer = 0
		}
		corrupt[layer] = c
	}
	switch roll := rng.Intn(10); {
	case roll < 2: // intact
	case roll < 7:
		pick()
	default:
		pick()
		pick()
	}
	// One chain in five loses a few more certificates, so that runs of
	// layers between flush points, and lookups after lookups, are common.
	if rng.Intn(5) == 0 {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			if layer := rng.Intn(layers); corrupt[layer] != noRequest {
				corrupt[layer] = omitCert
			}
		}
	}
	tc := twinCase{limit: twinMaxLayers}
	// The limit counts inner layers, so layers-1 is "at" it and anything
	// lower is over.
	if rng.Intn(4) == 0 {
		tc.limit = layers - 1 - rng.Intn(3)
	}
	// A directory that knows everyone, one that has lost a few entries,
	// or none.
	if mode := rng.Intn(3); mode > 0 {
		tc.dir = map[identity.DN]identity.PublicKey{}
		for _, s := range signers {
			if mode == 1 || rng.Intn(4) > 0 {
				tc.dir[s.key.DN] = s.key.Public()
			}
		}
	}
	tc.outer = buildTwinChain(tb, rng, layers, corrupt)
	tc.summary = fmt.Sprintf("layers=%d corrupt=%v limit=%d dir=%d", layers, corrupt, tc.limit, len(tc.dir))
	return tc
}

// diffAgainstTwin runs serialTwin, and the full walk into chain through
// dns, on one case and requires the same verdict, error text, decoded
// layers and directory lookups, and every DN dns holds to be dns's
// string. chain may hold what earlier cases left: what the walk decodes
// now must not show it.
func diffAgainstTwin(t *testing.T, chain *Chain, dns *DNTable, tc twinCase) {
	t.Helper()
	want := &twinVerifier{limit: tc.limit, dir: tc.dir}
	wantChain, wantErr := serialTwin(tc.outer, want)
	got := &twinVerifier{limit: tc.limit, dir: tc.dir}
	gotErr := chain.Open(tc.outer, dns, got, nil)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("%s: verdicts differ: twin err = %v, Open err = %v", tc.summary, wantErr, gotErr)
	case wantErr != nil && wantErr.Error() != gotErr.Error():
		t.Fatalf("%s: error text differs:\n twin:   %v\n Open:   %v", tc.summary, wantErr, gotErr)
	case !reflect.DeepEqual(want.lookups, got.lookups):
		t.Fatalf("%s: directory lookups differ:\n twin:   %v\n Open:   %v", tc.summary, want.lookups, got.lookups)
	case wantErr != nil:
		return
	case !reflect.DeepEqual(decoded(wantChain), decoded(chain)) || !bytes.Equal(wantChain.Request, chain.Request):
		t.Fatalf("%s: chains differ:\n twin:   %+v\n Open:   %+v", tc.summary, decoded(wantChain), decoded(chain))
	case chain.Verified() != len(chain.Layers):
		t.Fatalf("%s: %d layers verified, Open counted %d signature checks", tc.summary, len(chain.Layers), chain.Verified())
	}
	if err := fromTable(chain, dns); err != nil {
		t.Fatalf("%s: %v", tc.summary, err)
	}
	for d := 1; d < len(chain.Layers); d++ {
		if chain.Layers[d-1].Body.Inner != &chain.Layers[d].Env {
			t.Fatalf("%s: layer %d's Inner is not layer %d", tc.summary, d-1, d)
		}
	}
	if n := len(chain.Layers); chain.Layers[n-1].Body.Inner != nil {
		t.Fatalf("%s: the innermost layer has an Inner", tc.summary)
	}
}

// twinTable is the DN table of every other signer, so that a walk
// decodes DNs the table holds and DNs it copies.
func twinTable(signers []*twinSigner) *DNTable {
	var dns []identity.DN
	for i := 0; i < len(signers); i += 2 {
		dns = append(dns, signers[i].key.DN)
	}
	return NewDNTable(dns)
}

// fromTable fails when a DN of chain's that dns holds is a copy of its
// own and not dns's string. Layer 0's signer is the one the envelope
// was decoded with, and is not looked up.
func fromTable(chain *Chain, dns *DNTable) error {
	for d, l := range chain.Layers {
		names := []identity.DN{l.Body.NextHopDN}
		if d > 0 {
			names = append(names, l.Env.SignerDN)
		}
		for _, dn := range names {
			if held, ok := dns.dns[string(dn)]; ok && unsafe.StringData(string(held)) != unsafe.StringData(string(dn)) {
				return fmt.Errorf("layer %d's %s is a copy, not the DN table's", d, dn)
			}
		}
	}
	return nil
}

// decoded is what a chain's layers say, without where it is kept: a
// reused chain keeps an empty capability array and policy map where the
// twin has none; Inner is checked as a link, not as a value.
func decoded(c *Chain) []Layer {
	out := make([]Layer, len(c.Layers))
	for i, l := range c.Layers {
		l.Body.Inner = nil
		if len(l.Body.CapabilityDERs) == 0 {
			l.Body.CapabilityDERs = nil
		}
		if len(l.Body.PolicyInfo) == 0 {
			l.Body.PolicyInfo = nil
		}
		out[i] = l
	}
	return out
}

// TestUnwrapMatchesSerialTwin is the seeded differential property:
// over 10^4 generated chains of 1-12 layers — intact, one or two layers
// corrupted, certificates missing with and without a directory, expired
// and not yet valid, depth at and over the introduction limit — the
// concurrent full walk and the serial twin agree on verdict, error text,
// decoded chain and the sequence of directory lookups, whether one,
// two or eight processors are on offer. Open decodes every case into
// the same Chain, so a case that left anything behind shows in the next.
func TestUnwrapMatchesSerialTwin(t *testing.T) {
	chains := 10000
	if testing.Short() {
		chains = 1500
	}
	procs := []int{1, 2, 8}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// One chain and one DN table serve every case, as a broker's serve
	// request after request.
	var chain Chain
	dns := twinTable(twinFixture(t))
	for p, n := range procs {
		runtime.GOMAXPROCS(n)
		// Each setting draws its own third of the chains.
		rng := mrand.New(mrand.NewSource(int64(1301 + p)))
		for i := 0; i < (chains+len(procs)-1)/len(procs); i++ {
			diffAgainstTwin(t, &chain, dns, genTwinCase(t, rng))
		}
	}
}

// TestUnwrapForgedWrapperAsksNoDirectory pins the flush-point rule on
// its sharpest case: every inner layer arrives without a certificate, a
// directory that knows every signer is on hand, and one layer (which
// keeps its certificate) is forged. The directory is asked about the
// layers outside the forgery, in order, and about nothing inside it.
func TestUnwrapForgedWrapperAsksNoDirectory(t *testing.T) {
	signers := twinFixture(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const layers = 8
	for forged := 0; forged < layers; forged++ {
		corrupt := map[int]corruption{forged: flipSignature}
		for i := 0; i < layers-1; i++ {
			if i != forged {
				corrupt[i] = omitCert
			}
		}
		rng := mrand.New(mrand.NewSource(int64(forged)))
		outer := buildTwinChain(t, rng, layers, corrupt)
		v := &twinVerifier{limit: twinMaxLayers, dir: map[identity.DN]identity.PublicKey{}}
		for _, s := range signers {
			v.dir[s.key.DN] = s.key.Public()
		}
		if _, err := unwrap(outer, v); err == nil {
			t.Fatalf("forged layer %d accepted", forged)
		}
		// Signer i signs layer i from the inside, and the outermost
		// signer's key comes from the channel: the walk looks up signers
		// layers-2 down to forged+1, then finds the forgery.
		var want []identity.DN
		for i := layers - 2; i > forged; i-- {
			want = append(want, signers[i].key.DN)
		}
		if !reflect.DeepEqual(v.lookups, want) {
			t.Fatalf("forged layer %d: lookups = %v, want %v", forged, v.lookups, want)
		}
	}
}
