package envelope

import (
	"bytes"
	"encoding/json"
	"fmt"
	mrand "math/rand"
	"reflect"
	"runtime"
	"testing"

	"e2eqos/internal/identity"
)

// FuzzDecode ensures arbitrary bytes never panic the envelope decoder
// or the unwrapping machinery, that neither writes one byte of the
// input (they decode in place, so a write would corrupt the frame for
// its owner), and that what the encoder writes decodes back to itself
// at the size the size functions announce: the outer envelope and, one
// level in, the body.
func FuzzDecode(f *testing.F) {
	key, err := identity.GenerateKeyPair("/CN=seed")
	if err != nil {
		f.Fatal(err)
	}
	genuine, err := Seal(key, Body{Request: json.RawMessage(`{"x":1}`)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encode(genuine))
	wrapped, err := Seal(key, Body{
		Inner: genuine, UpstreamCertDER: []byte("cert"), NextHopDN: "/CN=next",
		CapabilityDERs: [][]byte{[]byte("cap"), nil}, PolicyInfo: map[string]string{"k": "v", "": ""},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encode(wrapped))
	f.Add([]byte(`{"signer_dn":"/CN=x","payload":{},"signature":"AA=="}`))
	f.Add([]byte(`{"signer_dn":"/CN=x","payload":{"inner":{"signer_dn":"/CN=y","payload":{},"signature":""}},"signature":""}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`garbage`))

	resolve := resolverFunc(func(_ int, dn identity.DN, _ []byte) (identity.PublicKey, error) {
		if dn == key.DN {
			return key.Public(), nil
		}
		return nil, fmt.Errorf("unknown %s", dn)
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		input := bytes.Clone(data)
		env, err := decode(data, key.DN)
		if err != nil {
			return
		}
		// Open may fail (bad signature, unknown signer) but must not
		// panic.
		_, _ = unwrap(env, resolve)
		var (
			body  Body
			inner Envelope
		)
		hasInner, perr := env.peekBody(&body, &inner, &names{})
		if hasInner {
			body.Inner = &inner
		}
		if !bytes.Equal(data, input) {
			t.Fatalf("decoding wrote to its input:\n before % x\n after  % x", input, data)
		}

		enc := encode(env)
		if len(enc) != env.WireSize() || cap(enc) != len(enc) {
			t.Fatalf("appendEnvelope wrote %d bytes into %d, WireSize says %d", len(enc), cap(enc), env.WireSize())
		}
		again, err := decode(enc, "")
		if err != nil {
			t.Fatalf("the encoder's own output does not decode: %v", err)
		}
		if re := encode(again); !bytes.Equal(re, enc) {
			t.Fatalf("decode then encode changed an encoded envelope:\n in  % x\n out % x", enc, re)
		}
		if perr != nil {
			return
		}
		signed := appendBody(nil, &body)
		if len(signed) != bodySize(&body) {
			t.Fatalf("appendBody wrote %d bytes, bodySize says %d", len(signed), bodySize(&body))
		}
		var (
			rebody  Body
			reinner Envelope
		)
		hasInner, err = decodeBody(&rebody, &reinner, signed, &names{})
		if err != nil {
			t.Fatalf("the encoder's own body does not decode: %v", err)
		}
		if hasInner {
			rebody.Inner = &reinner
		}
		if re := appendBody(nil, &rebody); !bytes.Equal(re, signed) {
			t.Fatalf("decode then encode changed an encoded body:\n in  % x\n out % x", signed, re)
		}
	})
}

// FuzzUnwrapMatchesSerial holds the full walk (Open with no Auditor,
// its inner layers checked concurrently) to the serial
// twin on whatever bytes the fuzzer makes of the differential test's
// own chains: same verdict, error text, chain and directory lookups,
// under any introduction limit, with and without a directory, into one
// Chain and through one DN table reused from input to input.
func FuzzUnwrapMatchesSerial(f *testing.F) {
	signers := twinFixture(f)
	rng := mrand.New(mrand.NewSource(1301))
	for i := 0; i < 48; i++ {
		tc := genTwinCase(f, rng)
		f.Add(encode(tc.outer), uint8(tc.limit), tc.dir != nil)
	}
	dir := map[identity.DN]identity.PublicKey{}
	for _, s := range signers[:len(signers)/2] {
		dir[s.key.DN] = s.key.Public()
	}
	// Helpers are started only when there are processors to run them on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Every input is unwrapped into the same chain, through one table.
	var chain Chain
	dns := twinTable(signers)
	f.Fuzz(func(t *testing.T, data []byte, limit uint8, withDir bool) {
		env, err := decode(data, signers[len(signers)-1].key.DN)
		if err != nil {
			return
		}
		tc := twinCase{outer: env, limit: int(limit), summary: fmt.Sprintf("limit=%d dir=%v", limit, withDir)}
		if withDir {
			tc.dir = dir
		}
		diffAgainstTwin(t, &chain, dns, tc)
	})
}

// FuzzTransitOpenMatchesUnwrap holds the walk of a hop that vouches —
// Open with an Auditor that always passes the request on — to the full
// walk, Open with no Auditor, on whatever bytes the fuzzer makes of the
// differential test's chains. Wherever the full walk's first failure is
// in layer 0 or in the decode, the vouching walk fails with the same
// text; wherever the full walk succeeds, the vouching walk succeeds
// with the same decoded chain, having checked layer 0 alone and
// vouched for the rest; and whenever it fails, it fails as the full
// walk does. Each walk decodes every input into one reused Chain, and
// both through one DN table, whose strings an accepted chain's DNs are.
func FuzzTransitOpenMatchesUnwrap(f *testing.F) {
	signers := twinFixture(f)
	rng := mrand.New(mrand.NewSource(1302))
	for i := 0; i < 48; i++ {
		tc := genTwinCase(f, rng)
		f.Add(encode(tc.outer), uint8(tc.limit), tc.dir != nil)
	}
	dir := map[identity.DN]identity.PublicKey{}
	for _, s := range signers[:len(signers)/2] {
		dir[s.key.DN] = s.key.Public()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var full, transit Chain
	dns := twinTable(signers)
	f.Fuzz(func(t *testing.T, data []byte, limit uint8, withDir bool) {
		env, err := decode(data, signers[len(signers)-1].key.DN)
		if err != nil {
			return
		}
		verifier := func() *twinVerifier {
			v := &twinVerifier{limit: int(limit)}
			if withDir {
				v.dir = dir
			}
			return v
		}
		fullErr := full.Open(env, dns, verifier(), nil)
		transitErr := transit.Open(env, dns, verifier(), passOn{})
		switch {
		case transitErr != nil && (fullErr == nil || transitErr.Error() != fullErr.Error()):
			t.Fatalf("vouching walk failed unlike the full walk:\n full:     %v\n vouching: %v", fullErr, transitErr)
		case fullErr != nil && transitErr == nil && outerOrDecode(fullErr):
			t.Fatalf("vouching walk accepted what the full walk refuses in layer 0 or the decode: %v", fullErr)
		case fullErr != nil:
			return
		case transitErr != nil:
			t.Fatalf("vouching walk refused what the full walk accepts: %v", transitErr)
		case !reflect.DeepEqual(decoded(&full), decoded(&transit)) || !bytes.Equal(full.Request, transit.Request):
			t.Fatalf("chains differ:\n full:     %+v\n vouching: %+v", decoded(&full), decoded(&transit))
		case transit.Verified() != 1 || transit.Vouched() != len(transit.Layers)-1:
			t.Fatalf("vouching walk over %d layers checked %d and vouched for %d, want 1 and %d",
				len(transit.Layers), transit.Verified(), transit.Vouched(), len(transit.Layers)-1)
		}
		if err := fromTable(&transit, dns); err != nil {
			t.Fatal(err)
		}
	})
}

// passOn is the Auditor of a hop that passes every request on.
type passOn struct{}

func (passOn) Audit(*Chain) bool { return false }

// outerOrDecode reports whether the full walk's error lies in layer 0 or in
// the decode rather than in an inner layer's key or signature.
func outerOrDecode(err error) bool {
	var d int
	if _, e := fmt.Sscanf(err.Error(), "envelope: resolving key for layer %d ", &d); e == nil {
		return d == 0
	}
	if _, e := fmt.Sscanf(err.Error(), "envelope: layer %d: envelope: layer signed by", &d); e == nil {
		return d == 0
	}
	return true
}
