package core

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"testing"
	"time"

	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
)

// chainFixture is a linear path of any length: one user and hops
// brokers under one CA, broker 0 trusting the CA for its users and
// every broker pinning its two neighbours, as SLA peers do.
type chainFixture struct {
	ca      *pki.CA
	user    *UserAgent
	brokers []*Broker
	certs   []*pki.Certificate
	// claims, when set, has every broker layer carry an admission claim,
	// as a forwarding broker's does.
	claims bool
}

// buildChain builds the fixture; lifetimes[i], when set, is how long
// broker i's certificate lasts (default a year).
func buildChain(tb testing.TB, hops int, lifetimes map[int]time.Duration) *chainFixture {
	tb.Helper()
	ca, err := pki.NewCA(identity.NewDN("Grid", "Chain", "CA"))
	if err != nil {
		tb.Fatal(err)
	}
	fx := &chainFixture{ca: ca}
	uk, err := identity.GenerateKeyPair(identity.NewDN("Grid", "D0", "Alice"))
	if err != nil {
		tb.Fatal(err)
	}
	ucert, err := ca.IssueIdentity(uk.DN, uk.Public(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	if fx.user, err = NewUserAgent(uk, ucert, nil); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < hops; i++ {
		key, err := identity.GenerateKeyPair(identity.NewDN("Grid", fmt.Sprintf("D%d", i), "bb"))
		if err != nil {
			tb.Fatal(err)
		}
		cert, err := ca.IssueIdentity(key.DN, key.Public(), lifetimes[i], "bb")
		if err != nil {
			tb.Fatal(err)
		}
		trust := pki.NewTrustStore(hops)
		if i == 0 {
			if err := trust.AddRoot(&pki.Certificate{Cert: ca.Certificate(), DER: ca.CertificateDER()}); err != nil {
				tb.Fatal(err)
			}
		}
		bb, err := NewBroker(key, cert, trust)
		if err != nil {
			tb.Fatal(err)
		}
		fx.brokers = append(fx.brokers, bb)
		fx.certs = append(fx.certs, cert)
	}
	for i := 1; i < hops; i++ {
		fx.brokers[i].Trust.PinPeer(fx.brokers[i-1].DN(), fx.brokers[i-1].Key.Public())
		fx.brokers[i-1].Trust.PinPeer(fx.brokers[i].DN(), fx.brokers[i].Key.Public())
	}
	// Every broker knows the others' DNs, as a topology names them.
	var dns []identity.DN
	for _, bb := range fx.brokers {
		dns = append(dns, bb.DN())
	}
	table := envelope.NewDNTable(dns)
	for _, bb := range fx.brokers {
		bb.DNs = table
	}
	return fx
}

// carry signs a fresh RAR and walks it through brokers 0..dest-1,
// returning what broker dest receives: the envelope and its channel
// peer. tamper, when set, is handed the envelope broker dest-1 is about
// to wrap — the dishonest-last-hop position.
func (fx *chainFixture) carry(tb testing.TB, dest int, at time.Time, tamper func(*envelope.Envelope)) (*envelope.Envelope, identity.DN, []byte) {
	tb.Helper()
	spec := testSpec(fx.user.Key.DN)
	env, err := fx.user.BuildRAR(spec, fx.certs[0])
	if err != nil {
		tb.Fatal(err)
	}
	peerDN, peerCert := fx.user.Key.DN, fx.user.Cert.DER
	for i := 0; i < dest; i++ {
		verified, err := fx.brokers[i].Verify(env, peerDN, peerCert, at)
		if err != nil {
			tb.Fatalf("broker %d: %v", i, err)
		}
		if tamper != nil && i == dest-1 {
			tamper(env)
		}
		var add *Additions
		if fx.claims {
			add = &Additions{Claim: fmt.Sprintf("net-D%d-1", i)}
		}
		if env, err = fx.brokers[i].Extend(env, peerCert, verified, fx.certs[i+1], add); err != nil {
			tb.Fatal(err)
		}
		peerDN, peerCert = fx.brokers[i].DN(), fx.certs[i].DER
	}
	return env, peerDN, peerCert
}

// TestCachedCertificateStillExpires: a certificate parsed and cached
// while valid is refused once the clock passes its NotAfter, with the
// words a broker that never saw it uses.
func TestCachedCertificateStillExpires(t *testing.T) {
	fx := buildChain(t, 3, map[int]time.Duration{0: 10 * time.Minute})
	now := time.Now()
	env, peerDN, peerCert := fx.carry(t, 2, now, nil)
	dest := fx.brokers[2]
	if _, err := dest.Verify(env, peerDN, peerCert, now); err != nil {
		t.Fatal(err)
	}
	if _, ok := dest.certs.Get(fx.certs[0].DER); !ok {
		t.Fatal("introduced certificate not cached by the chain that verified")
	}
	later := now.Add(time.Hour)
	_, err := dest.Verify(env, peerDN, peerCert, later)
	if err == nil {
		t.Fatal("cached certificate outlived its NotAfter")
	}
	cold, cerr := NewBroker(dest.Key, nil, dest.Trust)
	if cerr != nil {
		t.Fatal(cerr)
	}
	if _, want := cold.Verify(env, peerDN, peerCert, later); want == nil || want.Error() != err.Error() {
		t.Fatalf("warm and cold brokers disagree:\n warm: %v\n cold: %v", err, want)
	}
}

// TestFailedChainLeavesCacheUntouched: certificates carried by a chain
// that does not verify are not remembered — here the last hop vouches
// for an inner layer it has altered, so the outer layer verifies and
// the chain still fails; the same certificates enter the cache with
// the first chain that does verify.
func TestFailedChainLeavesCacheUntouched(t *testing.T) {
	fx := buildChain(t, 3, nil)
	now := time.Now()
	dest := fx.brokers[2]
	introduced := [][]byte{fx.certs[0].DER, fx.user.Cert.DER}

	env, peerDN, peerCert := fx.carry(t, 2, now, func(e *envelope.Envelope) { e.Signature[8] ^= 0x40 })
	if _, err := dest.Verify(env, peerDN, peerCert, now); err == nil {
		t.Fatal("altered inner layer accepted")
	}
	for i, der := range introduced {
		if _, ok := dest.certs.Get(der); ok {
			t.Fatalf("certificate %d cached on the strength of a chain that failed", i)
		}
	}
	env, peerDN, peerCert = fx.carry(t, 2, now, nil)
	if _, err := dest.Verify(env, peerDN, peerCert, now); err != nil {
		t.Fatal(err)
	}
	for i, der := range introduced {
		if _, ok := dest.certs.Get(der); !ok {
			t.Fatalf("certificate %d not cached by a chain that verified", i)
		}
	}
}

// TestOtherKeyAlgorithmRefusedByName: a certificate the trusted CA
// signed over a P-256 subject key is refused by Verify with
// identity.ErrKeyAlgorithm — presented on the channel or introduced by
// an honest neighbour — and is not remembered.
func TestOtherKeyAlgorithmRefusedByName(t *testing.T) {
	fx := buildChain(t, 2, nil)
	now := time.Now()
	p256, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(7),
		Subject:      fx.user.Cert.Cert.Subject,
		NotBefore:    now.Add(-time.Hour),
		NotAfter:     now.Add(time.Hour),
	}
	odd, err := x509.CreateCertificate(rand.Reader, tmpl, fx.ca.Certificate(), &p256.PublicKey, fx.ca.Key().Private.Signer())
	if err != nil {
		t.Fatal(err)
	}

	env, err := fx.user.BuildRAR(testSpec(fx.user.Key.DN), fx.certs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.brokers[0].Verify(env, fx.user.Key.DN, odd, now); !errors.Is(err, identity.ErrKeyAlgorithm) {
		t.Errorf("channel certificate: err = %v, want identity.ErrKeyAlgorithm", err)
	}
	verified, err := fx.brokers[0].Verify(env, fx.user.Key.DN, fx.user.Cert.DER, now)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := fx.brokers[0].Extend(env, odd, verified, fx.certs[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.brokers[1].Verify(wrapped, fx.brokers[0].DN(), fx.certs[0].DER, now); !errors.Is(err, identity.ErrKeyAlgorithm) {
		t.Errorf("introduced certificate: err = %v, want identity.ErrKeyAlgorithm", err)
	}
	for i, b := range fx.brokers {
		if _, ok := b.certs.Get(odd); ok {
			t.Errorf("broker %d cached the refused certificate", i)
		}
	}
}

// warmVerify builds a hops-long chain, warms the destination's
// certificate cache with one verification and returns the envelope the
// destination receives and the function that verifies it again.
func warmVerify(t *testing.T, hops int, now time.Time, claims bool) (*envelope.Envelope, func()) {
	t.Helper()
	fx := buildChain(t, hops, nil)
	fx.claims = claims
	env, peerDN, peerCert := fx.carry(t, hops-1, now, nil)
	dest := fx.brokers[hops-1]
	v, err := dest.Verify(env, peerDN, peerCert, now)
	if err != nil {
		t.Fatal(err)
	}
	if claims && len(v.Claims) != hops-1 {
		t.Fatalf("a %d-layer onion of claiming brokers verified with %d claims, want %d", hops, len(v.Claims), hops-1)
	}
	verify := func() {
		if _, err := dest.Verify(env, peerDN, peerCert, now); err != nil {
			t.Fatal(err)
		}
	}
	return env, verify
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWarmVerifyAllocationFree gates the cache and the pooled chain:
// once a broker has seen a path's certificates, verifying another RAR
// over it parses none of them, and a layer costs no allocation at all —
// the onion is decoded in place into the broker's pooled chain and
// checked without closures — so a warm 8-layer Verify allocates exactly
// what a warm 2-layer one does. That is what the request keeps, and no
// more than 6 objects: the VerifiedRequest and its Path, the Spec, its
// one string and its assertions, and the user's DN, the one DN of the
// onion that is not the broker's DN table's (the same 6 while every DN
// was cut from a string copy of the onion, which the user's DN
// replaced; 26 at 2 layers and 38 at 8 were measured when a layer was
// its own Envelope and Body and each check run had its closures). The
// audit a destination runs, over layers that each carry their broker's
// admission claim, keeps one object more, VerifiedRequest.Claims, whose
// claims are sub-slices of the frame: 7, at any depth too.
func TestWarmVerifyAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	now := time.Now()
	for _, row := range []struct {
		claims bool
		bound  float64
	}{{false, 6}, {true, 7}} {
		warm := func(hops int) float64 {
			_, verify := warmVerify(t, hops, now, row.claims)
			return testing.AllocsPerRun(50, verify)
		}
		at2, at8 := warm(2), warm(8)
		t.Logf("warm Verify, claims %v: %.0f allocs at 2 layers, %.0f at 8", row.claims, at2, at8)
		if at8 != at2 {
			t.Errorf("claims %v: a warm 8-layer Verify allocates %.0f objects, a 2-layer one %.0f: a layer costs an allocation again", row.claims, at8, at2)
		}
		if at8 > row.bound {
			t.Errorf("claims %v: a warm Verify allocates %.0f objects, want at most %.0f: more than the request keeps", row.claims, at8, row.bound)
		}
	}
}

// TestWarmVerifyBytesAllocationBound: the bytes a warm Verify allocates
// do not grow with the onion. Decoding in place into a pooled chain
// through the broker's DN table, a layer costs nothing and the onion is
// not copied, so eight layers allocate no more than 1.5 times what two
// do and less than half the envelope's own encoded length (608 B at 8
// layers were measured for a 3.8 KB onion; 4.5 KB while every onion was
// copied into a string once, 19 KB when every nesting level copied its
// payload again).
func TestWarmVerifyBytesAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	now := time.Now()
	_, verify2 := warmVerify(t, 2, now, false)
	env8, verify8 := warmVerify(t, 8, now, false)
	at2, at8 := bytesPerRun(50, verify2), bytesPerRun(50, verify8)
	wire := float64(env8.WireSize())
	t.Logf("warm Verify: %.0f B at 2 layers, %.0f B at 8 (%.0f B on the wire)", at2, at8, wire)
	if at8 > 1.5*at2 {
		t.Errorf("8 layers allocate %.0f B, 2 layers %.0f B: more than 1.5 times, a layer is copied", at8, at2)
	}
	if at8 > wire/2 {
		t.Errorf("verifying a %.0f B envelope allocates %.0f B, want less than half its length: the onion is copied", wire, at8)
	}
}

// TestSealAllocationBound: wrapping an 8-layer onion allocates what
// wrapping a 1-layer one does — one buffer of the layer's exact size,
// the payload with the signature behind it, and the Envelope — and the
// buffer is the only one of the two that grows with the onion.
func TestSealAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	now := time.Now()
	fx := buildChain(t, 9, nil)
	seal := func(inner *envelope.Envelope) func() {
		body := envelope.Body{Inner: inner, UpstreamCertDER: fx.certs[0].DER, NextHopDN: fx.brokers[8].DN(), Timestamp: now}
		return func() {
			if _, err := envelope.Seal(fx.brokers[7].Key, body); err != nil {
				t.Fatal(err)
			}
		}
	}
	env1, _, _ := fx.carry(t, 0, now, nil)
	env8, _, _ := fx.carry(t, 7, now, nil)
	at1, at8 := testing.AllocsPerRun(50, seal(env1)), testing.AllocsPerRun(50, seal(env8))
	bytes8 := bytesPerRun(50, seal(env8))
	t.Logf("Seal: %.0f allocs over 1 layer, %.0f over 8 (%.0f B for a %d B inner envelope)", at1, at8, bytes8, env8.WireSize())
	if at8 > 2 || at8 != at1 {
		t.Errorf("Seal allocates %.0f objects over 8 layers and %.0f over 1, want the same and at most 2", at8, at1)
	}
	// Size classes round an allocation up by an eighth at most.
	if limit := 1.125*float64(env8.WireSize()+len(fx.certs[0].DER)) + 512; bytes8 > limit {
		t.Errorf("Seal over a %d B envelope allocates %.0f B, want at most %.0f: the payload is built more than once", env8.WireSize(), bytes8, limit)
	}
}

// TestRecycledExtendAllocationBound: a broker that hands its sealed
// envelopes back seals the next layer into the same buffer, the
// signature behind the payload, so wrapping a 2- or an 8-layer onion
// allocates nothing: the claim's bytes and the signature are made on the
// stack, and the buffer is the one the last Extend sealed into.
func TestRecycledExtendAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	now := time.Now()
	fx := buildChain(t, 9, nil)
	extend := func(hop int) func() {
		env, _, peerCert := fx.carry(t, hop, now, nil)
		verified, err := fx.brokers[hop].Verify(env, fx.brokers[hop-1].DN(), peerCert, now)
		if err != nil {
			t.Fatal(err)
		}
		add := &Additions{Claim: "net-D7-1"}
		return func() {
			sealed, err := fx.brokers[hop].Extend(env, peerCert, verified, fx.certs[hop+1], add)
			if err != nil {
				t.Fatal(err)
			}
			fx.brokers[hop].Recycle(sealed)
		}
	}
	at1, at8 := testing.AllocsPerRun(50, extend(1)), testing.AllocsPerRun(50, extend(7))
	bytes8 := bytesPerRun(50, extend(7))
	t.Logf("recycled Extend: %.0f allocs over 2 layers, %.0f over 8 (%.0f B)", at1, at8, bytes8)
	if at8 != 0 || at1 != 0 || bytes8 != 0 {
		t.Errorf("a recycled Extend allocates %.0f objects (%.0f B) over 8 layers and %.0f over 2, want none", at8, bytes8, at1)
	}
}
