package envelope

import (
	"encoding/json"
	"fmt"
	"maps"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"e2eqos/internal/identity"
)

// decode is DecodeInto into an envelope of its own.
func decode(data []byte, signer identity.DN) (*Envelope, error) {
	e := new(Envelope)
	if err := DecodeInto(e, data, signer); err != nil {
		return nil, err
	}
	return e, nil
}

type testRequest struct {
	Source string `json:"source"`
	Dest   string `json:"dest"`
	Mbps   int    `json:"mbps"`
}

func mustKey(t *testing.T, name string) *identity.KeyPair {
	t.Helper()
	kp, err := identity.GenerateKeyPair(identity.NewDN("Grid", "", name))
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

// buildOnion builds the paper's RAR_U -> RAR_A -> RAR_B chain:
// user signs the request; each BB wraps the previous envelope.
func buildOnion(t *testing.T, hops int) (keys []*identity.KeyPair, outer *Envelope) {
	t.Helper()
	user := mustKey(t, "alice")
	keys = append(keys, user)
	req, err := json.Marshal(testRequest{Source: "A", Dest: "C", Mbps: 10})
	if err != nil {
		t.Fatal(err)
	}
	env, err := Seal(user, Body{Request: req, NextHopDN: identity.NewDN("Grid", "", "bb-0")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hops; i++ {
		bb := mustKey(t, fmt.Sprintf("bb-%d", i))
		keys = append(keys, bb)
		env, err = Seal(bb, Body{
			Inner:      env,
			NextHopDN:  identity.NewDN("Grid", "", fmt.Sprintf("bb-%d", i+1)),
			PolicyInfo: map[string]string{fmt.Sprintf("hop-%d", i): "ok", "last": fmt.Sprintf("bb-%d", i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return keys, env
}

// encode is the envelope's binary form, written into a buffer of
// exactly WireSize bytes.
func encode(e *Envelope) []byte { return appendEnvelope(make([]byte, 0, e.WireSize()), e) }

// resolverFunc adapts a function to KeyResolver.
type resolverFunc func(depth int, dn identity.DN, certDER []byte) (identity.PublicKey, error)

func (f resolverFunc) ResolveKey(depth int, dn identity.DN, certDER []byte) (identity.PublicKey, error) {
	return f(depth, dn, certDER)
}

// unwrap unwraps outer into a chain of its own, copying every DN.
func unwrap(outer *Envelope, resolve KeyResolver) (*Chain, error) {
	chain := &Chain{}
	if err := chain.Open(outer, nil, resolve, nil); err != nil {
		return nil, err
	}
	return chain, nil
}

// open verifies a one-layer envelope under pub on the full walk and
// returns its body.
func open(env *Envelope, pub identity.PublicKey) (*Body, error) {
	chain, err := unwrap(env, resolverFunc(func(int, identity.DN, []byte) (identity.PublicKey, error) { return pub, nil }))
	if err != nil {
		return nil, err
	}
	return &chain.Layers[0].Body, nil
}

func resolverFor(keys []*identity.KeyPair) KeyResolver {
	byDN := make(map[identity.DN]identity.PublicKey)
	for _, k := range keys {
		byDN[k.DN] = k.Public()
	}
	return resolverFunc(func(_ int, dn identity.DN, _ []byte) (identity.PublicKey, error) {
		pub, ok := byDN[dn]
		if !ok {
			return nil, fmt.Errorf("unknown signer %s", dn)
		}
		return pub, nil
	})
}

func TestSealOpen(t *testing.T) {
	user := mustKey(t, "alice")
	req, _ := json.Marshal(testRequest{Source: "A", Dest: "C", Mbps: 10})
	env, err := Seal(user, Body{Request: req})
	if err != nil {
		t.Fatal(err)
	}
	body, err := open(env, user.Public())
	if err != nil {
		t.Fatal(err)
	}
	var got testRequest
	if err := json.Unmarshal(body.Request, &got); err != nil {
		t.Fatal(err)
	}
	if got.Mbps != 10 || got.Dest != "C" {
		t.Errorf("request round trip mismatch: %+v", got)
	}
	if body.Timestamp.IsZero() {
		t.Error("Seal must stamp a timestamp")
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	user := mustKey(t, "alice")
	mallory := mustKey(t, "mallory")
	env, err := Seal(user, Body{Request: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := open(env, mallory.Public()); err == nil {
		t.Fatal("wrong key accepted")
	}
}

func TestOpenRejectsTamperedPayload(t *testing.T) {
	user := mustKey(t, "alice")
	env, err := Seal(user, Body{Request: json.RawMessage(`{"mbps":10}`)})
	if err != nil {
		t.Fatal(err)
	}
	env.Payload[len(env.Payload)-3] ^= 0x01
	if _, err := open(env, user.Public()); err == nil {
		t.Fatal("tampered payload accepted")
	}
}

func TestUnwrapThreeHops(t *testing.T) {
	keys, outer := buildOnion(t, 3)
	chain, err := unwrap(outer, resolverFor(keys))
	if err != nil {
		t.Fatal(err)
	}
	if len(chain.Layers) != 4 { // user + 3 BBs
		t.Fatalf("layers = %d, want 4", len(chain.Layers))
	}
	var got testRequest
	if err := json.Unmarshal(chain.Request, &got); err != nil {
		t.Fatal(err)
	}
	if got.Mbps != 10 {
		t.Errorf("request = %+v", got)
	}
	path := chain.PathDNs()
	if len(path) != 4 || path[0] != keys[0].DN || path[3] != keys[3].DN {
		t.Errorf("path = %v", path)
	}
}

// TestUnwrapChecksEachLayerOnce: a RAR crossing eight domains is
// unwrapped once per hop, and each unwrap resolves one key — and checks
// one signature with it — per layer it finds: 1+2+...+8 = 36, whether
// the onion was sealed here or decoded in place out of a frame. The
// chain's own count, kept where each signature is checked, agrees.
func TestUnwrapChecksEachLayerOnce(t *testing.T) {
	checks, verified := 0, 0
	for hops := 0; hops < 8; hops++ {
		keys, outer := buildOnion(t, hops)
		data := encode(outer)
		received, err := decode(data, keys[hops].DN)
		if err != nil {
			t.Fatal(err)
		}
		resolve := resolverFor(keys)
		var mu sync.Mutex
		chain, err := unwrap(received, resolverFunc(func(depth int, dn identity.DN, hint []byte) (identity.PublicKey, error) {
			mu.Lock()
			checks++
			mu.Unlock()
			return resolve.ResolveKey(depth, dn, hint)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if len(chain.Layers) != hops+1 || chain.PathDNs()[0] != keys[0].DN {
			t.Fatalf("%d hops: unwrapped %d layers from %v", hops, len(chain.Layers), chain.PathDNs())
		}
		verified += chain.Verified()
	}
	if checks != 36 || verified != 36 {
		t.Errorf("an 8-domain RAR cost %d key resolutions and %d counted signature checks, want 36", checks, verified)
	}
}

func TestUnwrapDetectsInnerTampering(t *testing.T) {
	keys, outer := buildOnion(t, 2)
	// Tamper with the innermost layer through the outer payload bytes:
	// flip a byte inside the encoded inner envelope's payload.
	var (
		body  Body
		inner Envelope
	)
	if _, err := decodeBody(&body, &inner, outer.Payload, &names{}); err != nil {
		t.Fatal(err)
	}
	body.Inner = &inner
	inner.Payload[10] ^= 0xff
	// Re-encode; the outer signature is now stale, so re-sign outer to
	// simulate a malicious LAST hop modifying an inner layer.
	payload := appendBody(nil, &body)
	sig, _ := keys[len(keys)-1].Sign(payload)
	outer = &Envelope{SignerDN: keys[len(keys)-1].DN, Payload: payload, Signature: sig}
	if _, err := unwrap(outer, resolverFor(keys)); err == nil {
		t.Fatal("inner tampering went undetected")
	}
}

func TestUnwrapRejectsUnknownSigner(t *testing.T) {
	keys, outer := buildOnion(t, 2)
	if _, err := unwrap(outer, resolverFor(keys[:2])); err == nil {
		t.Fatal("unknown signer accepted")
	}
}

func TestUnwrapRejectsEmptyInnermost(t *testing.T) {
	user := mustKey(t, "alice")
	env, err := Seal(user, Body{}) // neither Inner nor Request
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unwrap(env, resolverFor([]*identity.KeyPair{user})); err == nil {
		t.Fatal("empty innermost layer accepted")
	}
}

func TestUnwrapDepthBound(t *testing.T) {
	user := mustKey(t, "deep")
	env, err := Seal(user, Body{Request: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	resolve := resolverFor([]*identity.KeyPair{user})
	wrap := func() {
		if env, err = Seal(user, Body{Inner: env}); err != nil {
			t.Fatal(err)
		}
	}
	// The bound is exact: maxDepth layers pass, one more is refused
	// under the message that names the bound.
	for layers := 1; layers < maxDepth; layers++ {
		wrap()
	}
	chain, err := unwrap(env, resolve)
	if err != nil {
		t.Fatalf("%d layers refused: %v", maxDepth, err)
	}
	if len(chain.Layers) != maxDepth {
		t.Fatalf("layers = %d, want %d", len(chain.Layers), maxDepth)
	}
	wrap()
	_, err = unwrap(env, resolve)
	if want := fmt.Sprintf("envelope: chain deeper than %d layers", maxDepth); err == nil || err.Error() != want {
		t.Fatalf("%d layers: err = %v, want %q", maxDepth+1, err, want)
	}
	if _, twinErr := serialTwin(env, resolve); twinErr == nil || twinErr.Error() != err.Error() {
		t.Fatalf("twin disagrees at the bound: %v", twinErr)
	}
	for i := 0; i < 2; i++ {
		wrap()
	}
	if _, err := unwrap(env, resolverFor([]*identity.KeyPair{user})); err == nil {
		t.Fatal("over-deep onion accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	keys, outer := buildOnion(t, 2)
	data := encode(outer)
	decoded, err := decode(data, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := unwrap(decoded, resolverFor(keys)); err != nil {
		t.Fatalf("decoded onion fails verification: %v", err)
	}
}

// TestDecodeTakesTheSignerItIsGiven: the outer layer's SignerDN is the
// DN Decode is handed when the envelope names it — the channel peer's
// own string, no copy — and a copy of the name the envelope carries
// when it names someone else.
func TestDecodeTakesTheSignerItIsGiven(t *testing.T) {
	keys, outer := buildOnion(t, 1)
	data := encode(outer)
	peer := identity.DN(string(keys[1].DN)) // a string of its own
	got, err := decode(data, peer)
	if err != nil {
		t.Fatal(err)
	}
	if got.SignerDN != peer || unsafe.StringData(string(got.SignerDN)) != unsafe.StringData(string(peer)) {
		t.Errorf("SignerDN %q is not the peer's string %q", got.SignerDN, peer)
	}
	other, err := decode(data, keys[0].DN)
	if err != nil {
		t.Fatal(err)
	}
	if other.SignerDN != keys[1].DN {
		t.Errorf("SignerDN = %q, want the envelope's %q", other.SignerDN, keys[1].DN)
	}
	if raceEnabled {
		return // allocation counts are meaningless under -race
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := decode(data, peer); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("decoding an envelope its channel peer signed allocates %.0f objects, want 1 (the Envelope)", allocs)
	}
}

// TestDNTableCostsTheSameForEveryUser: a broker's DN table holds its
// topology's brokers and nothing else, so an onion from a user met for
// the first time costs what one from a user met before does, one copy
// of the user's DN, however many users come (2 × pki's certificate
// cache bound of them here); the brokers' DNs are the table's strings;
// and no onion, accepted or refused, changes the table.
func TestDNTableCostsTheSameForEveryUser(t *testing.T) {
	bb, dest := mustKey(t, "bb"), identity.NewDN("Grid", "", "dest")
	dns := NewDNTable([]identity.DN{bb.DN, dest})
	held := maps.Clone(dns.dns)
	onion := func(user *identity.KeyPair) *Envelope {
		inner, err := Seal(user, Body{Request: json.RawMessage(`{}`), NextHopDN: bb.DN})
		if err != nil {
			t.Fatal(err)
		}
		outer, err := Seal(bb, Body{Inner: inner, NextHopDN: dest})
		if err != nil {
			t.Fatal(err)
		}
		received, err := decode(encode(outer), bb.DN)
		if err != nil {
			t.Fatal(err)
		}
		return received
	}
	const users = 1024
	onions := make([]*Envelope, users)
	byDN := map[identity.DN]identity.PublicKey{bb.DN: bb.Public()}
	for i := range onions {
		user := mustKey(t, fmt.Sprintf("user-%d", i))
		onions[i], byDN[user.DN] = onion(user), user.Public()
	}
	resolve := resolverFunc(func(_ int, dn identity.DN, _ []byte) (identity.PublicKey, error) {
		if pub, ok := byDN[dn]; ok {
			return pub, nil
		}
		return nil, fmt.Errorf("unknown signer %s", dn)
	})
	var chain Chain
	for i, env := range onions {
		if err := chain.Open(env, dns, resolve, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := chain.Layers[1].Env.SignerDN, identity.NewDN("Grid", "", fmt.Sprintf("user-%d", i)); got != want {
			t.Fatalf("user %d: inner signer %q, want %q", i, got, want)
		}
		if err := fromTable(&chain, dns); err != nil {
			t.Fatalf("user %d: %v", i, err)
		}
	}
	if !maps.Equal(held, dns.dns) {
		t.Errorf("%d accepted onions changed the table: %d DNs, want %d", users, len(dns.dns), len(held))
	}
	stranger := mustKey(t, "stranger") // resolves the inner signer to the wrong key
	if err := chain.Open(onion(mustKey(t, "forger")), dns, resolverFunc(func(depth int, _ identity.DN, _ []byte) (identity.PublicKey, error) {
		if depth == 0 {
			return bb.Public(), nil
		}
		return stranger.Public(), nil
	}), nil); err == nil {
		t.Fatal("an inner layer under the wrong key verified")
	}
	if !maps.Equal(held, dns.dns) {
		t.Error("a refused onion changed the table")
	}

	if raceEnabled {
		return // allocation counts are meaningless under -race
	}
	next := 0
	allUsers := testing.AllocsPerRun(users-1, func() {
		next++
		if err := chain.Open(onions[next%users], dns, resolve, nil); err != nil {
			t.Fatal(err)
		}
	})
	oneUser := testing.AllocsPerRun(100, func() {
		if err := chain.Open(onions[0], dns, resolve, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allUsers != 1 || oneUser != 1 {
		t.Errorf("opening an onion allocates %.1f objects when every user is new and %.1f when one user repeats, want 1 (the user's DN) for both", allUsers, oneUser)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := decode([]byte("not json"), ""); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestWireSizeGrowsWithHops(t *testing.T) {
	_, e1 := buildOnion(t, 1)
	_, e4 := buildOnion(t, 4)
	if e4.WireSize() <= e1.WireSize() {
		t.Errorf("wire size must grow with hops: 1 hop = %d, 4 hops = %d", e1.WireSize(), e4.WireSize())
	}
}

func TestPeekBody(t *testing.T) {
	user := mustKey(t, "alice")
	env, err := Seal(user, Body{Request: json.RawMessage(`{}`), NextHopDN: "/CN=bb-a"})
	if err != nil {
		t.Fatal(err)
	}
	var (
		body  Body
		inner Envelope
	)
	if _, err := env.peekBody(&body, &inner, &names{}); err != nil {
		t.Fatal(err)
	}
	if body.NextHopDN != "/CN=bb-a" {
		t.Errorf("NextHopDN = %s", body.NextHopDN)
	}
}

func TestSealPreservesExplicitTimestamp(t *testing.T) {
	user := mustKey(t, "alice")
	ts := time.Date(2001, 8, 7, 12, 0, 0, 0, time.UTC)
	env, err := Seal(user, Body{Request: json.RawMessage(`{}`), Timestamp: ts})
	if err != nil {
		t.Fatal(err)
	}
	body, err := open(env, user.Public())
	if err != nil {
		t.Fatal(err)
	}
	if !body.Timestamp.Equal(ts) {
		t.Errorf("timestamp = %v, want %v", body.Timestamp, ts)
	}
}

// TestUnwrapAllocationBound: unwrapping into a chain that has unwrapped
// before, through a DN table of the onion's brokers, allocates the same
// at any depth: one copy of the user's DN, which no broker's table
// holds, and one string copy of the onion when its layers carry policy
// attributes, every key and value cut from it; an onion without, as
// the reserve path's are, is not copied. Layers decode into the chain's
// own array, their capability arrays and policy maps are kept, and the
// checks run without closures, helper goroutines included (≥ 2 per
// layer were measured when a layer was its own Envelope and Body; 1 per
// onion while every DN was cut from a string copy of the whole onion;
// 4 per attribute-carrying layer while each key and value was copied).
func TestUnwrapAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, hops := range []int{1, 7} {
		for _, attributes := range []bool{true, false} {
			keys, outer := buildOnion(t, hops)
			if !attributes {
				keys, outer = plainOnion(t, hops)
			}
			received, err := decode(encode(outer), keys[hops].DN)
			if err != nil {
				t.Fatal(err)
			}
			resolve := resolverFor(keys)
			var brokers []identity.DN
			for i := 0; i <= hops; i++ {
				brokers = append(brokers, identity.NewDN("Grid", "", fmt.Sprintf("bb-%d", i)))
			}
			dns := NewDNTable(brokers)
			var chain Chain
			allocs := testing.AllocsPerRun(100, func() {
				if err := chain.Open(received, dns, resolve, nil); err != nil {
					t.Fatal(err)
				}
			})
			want := 1.0
			if attributes {
				want = 2
			}
			if allocs != want {
				t.Errorf("unwrapping %d layers (policy attributes %v) into a used chain allocates %.1f objects, want %.0f", hops+1, attributes, allocs, want)
			}
			if err := fromTable(&chain, dns); err != nil {
				t.Error(err)
			}
		}
	}
}

// plainOnion is buildOnion's chain without policy attributes.
func plainOnion(t *testing.T, hops int) (keys []*identity.KeyPair, outer *Envelope) {
	t.Helper()
	user := mustKey(t, "alice")
	keys = append(keys, user)
	env, err := Seal(user, Body{Request: json.RawMessage(`{}`), NextHopDN: identity.NewDN("Grid", "", "bb-0")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < hops; i++ {
		bb := mustKey(t, fmt.Sprintf("bb-%d", i))
		keys = append(keys, bb)
		if env, err = Seal(bb, Body{Inner: env, NextHopDN: identity.NewDN("Grid", "", fmt.Sprintf("bb-%d", i+1)), Claim: []byte(fmt.Sprintf("claim-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return keys, env
}
