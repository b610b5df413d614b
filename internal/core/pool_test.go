package core

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/cas"
	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
	"e2eqos/internal/wire"
)

// poolRequest is one request the destination of an 8-broker chain
// receives: the envelope's bytes, the channel it came over, and what a
// broker that has pooled nothing yet makes of it.
type poolRequest struct {
	name     string
	frame    []byte
	peerDN   identity.DN
	peerCert []byte
	want     *VerifiedRequest
	wantErr  string
}

// frameOf is env's encoding, as a reserve payload carries it.
func frameOf(env *envelope.Envelope) []byte {
	d := wire.Dec{Buf: env.AppendField(nil, 1)}
	d.Tag()
	return d.Bytes()
}

// verifyFrame decodes a private copy of r's frame in place, verifies
// it at b and then overwrites the copy, as a connection drops a frame
// once its exchange is over. What Verify returned must not change.
func (r *poolRequest) verifyFrame(b *Broker, now time.Time) (*VerifiedRequest, error) {
	frame := bytes.Clone(r.frame)
	var env envelope.Envelope
	if err := envelope.DecodeInto(&env, frame, r.peerDN); err != nil {
		return nil, err
	}
	got, err := b.Verify(&env, r.peerDN, r.peerCert, now)
	for i := range frame {
		frame[i] = 0xA5
	}
	return got, err
}

// check verifies r at b and compares the outcome with r's.
func (r *poolRequest) check(b *Broker, now time.Time) (*VerifiedRequest, error) {
	got, err := r.verifyFrame(b, now)
	switch {
	case r.wantErr == "" && err != nil:
		return nil, fmt.Errorf("%s: %v", r.name, err)
	case r.wantErr != "" && (err == nil || err.Error() != r.wantErr):
		return nil, fmt.Errorf("%s: err = %v, want %s", r.name, err, r.wantErr)
	case !reflect.DeepEqual(got, r.want):
		return nil, fmt.Errorf("%s: verified\n %+v\nwant\n %+v", r.name, got, r.want)
	}
	return got, nil
}

// poolFixture is an 8-broker chain whose user carries a capability, and
// the requests its destination is sent: 8-layer onions, 2-layer ones
// (the user to broker 6, which forwards), and an 8-layer onion with a
// forged inner layer.
func poolFixture(t *testing.T, now time.Time) (*Broker, []*poolRequest) {
	t.Helper()
	fx := buildChain(t, 8, nil)
	casKey, err := identity.GenerateKeyPair(identity.NewDN("ESnet", "", "CAS"))
	if err != nil {
		t.Fatal(err)
	}
	server := cas.NewServer(casKey)
	server.Grant(fx.user.Key.DN, "network-reservation")
	if fx.user.Credential, err = server.Login(fx.user.Key.DN); err != nil {
		t.Fatal(err)
	}
	root := &pki.Certificate{Cert: fx.ca.Certificate(), DER: fx.ca.CertificateDER()}
	if err := fx.brokers[6].Trust.AddRoot(root); err != nil {
		t.Fatal(err)
	}
	dest := fx.brokers[7]
	var reqs []*poolRequest
	add := func(name string, env *envelope.Envelope, peerDN identity.DN, peerCert []byte) {
		r := &poolRequest{name: name, frame: frameOf(env), peerDN: peerDN, peerCert: peerCert}
		// A broker of its own, sharing dest's key and trust, has
		// pooled nothing and cached nothing.
		fresh, err := NewBroker(dest.Key, nil, dest.Trust)
		if err != nil {
			t.Fatal(err)
		}
		if r.want, err = r.verifyFrame(fresh, now); err != nil {
			r.wantErr = err.Error()
		}
		reqs = append(reqs, r)
	}
	for i := 0; i < 2; i++ {
		env, peerDN, peerCert := fx.carry(t, 7, now, nil)
		add(fmt.Sprintf("8 layers #%d", i), env, peerDN, peerCert)

		rarU, err := fx.user.BuildRAR(testSpec(fx.user.Key.DN), fx.certs[6])
		if err != nil {
			t.Fatal(err)
		}
		verified, err := fx.brokers[6].Verify(rarU, fx.user.Key.DN, fx.user.Cert.DER, now)
		if err != nil {
			t.Fatal(err)
		}
		env, err = fx.brokers[6].Extend(rarU, fx.user.Cert.DER, verified, fx.certs[7], nil)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("2 layers #%d", i), env, fx.brokers[6].DN(), fx.certs[6].DER)
	}
	env, peerDN, peerCert := fx.carry(t, 7, now, func(env *envelope.Envelope) {
		env.Payload[len(env.Payload)/2] ^= 1
	})
	add("forged layer 1", env, peerDN, peerCert)
	for _, r := range reqs {
		if (r.wantErr != "") != (r.name == "forged layer 1") {
			t.Fatalf("%s: a fresh broker says %v", r.name, r.wantErr)
		}
	}
	return dest, reqs
}

// residue names the first thing v holds that is not the capacity of an
// array: a non-empty string, a byte slice (nil or not: every one the
// scratch has held was a sub-slice of a frame), a pointer, interface or
// func that is set, or a map with entries. The slots of other slices
// are searched up to their capacity.
func residue(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.String:
		if v.Len() > 0 {
			return path
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if !v.IsNil() {
				return path
			}
			return ""
		}
		all := v.Slice3(0, v.Cap(), v.Cap())
		for i := 0; i < all.Len(); i++ {
			if r := residue(all.Index(i), fmt.Sprintf("%s[%d]", path, i)); r != "" {
				return r
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if r := residue(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); r != "" {
				return r
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if r := residue(v.Field(i), path+"."+v.Type().Field(i).Name); r != "" {
				return r
			}
		}
	case reflect.Pointer, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if !v.IsNil() {
			return path
		}
	case reflect.Map:
		if v.Len() > 0 {
			return path
		}
	}
	return ""
}

// TestPooledVerifyKeepsNothingOfTheLast: once Verify has returned, the
// scratch it worked in holds nothing of the request — no sub-slice of
// its frame, no DN, no policy attribute, no error, no broker —
// only the capacity of its arrays. A destination verifies an 8-layer
// request, a 2-layer one, a forged one and so on in turn: each outcome
// is what a broker that had pooled nothing says, each survives its
// frame being overwritten, and every VerifiedRequest still reads the
// same after the requests that reused its scratch.
func TestPooledVerifyKeepsNothingOfTheLast(t *testing.T) {
	now := time.Now()
	dest, reqs := poolFixture(t, now)
	order := []int{0, 1, 4, 2, 4, 3, 1, 0, 4, 1}
	var (
		kept      []*VerifiedRequest
		keptFrom  []*poolRequest
		inspected int
	)
	for _, i := range order {
		r := reqs[i]
		got, err := r.check(dest, now)
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			kept, keptFrom = append(kept, got), append(keptFrom, r)
		}
		// The race detector's pool drops a share of what is put back.
		s, _ := dest.scratch.Get().(*verifyScratch)
		if s == nil {
			continue
		}
		inspected++
		if where := residue(reflect.ValueOf(s).Elem(), "scratch"); where != "" {
			t.Fatalf("after %s the pooled scratch still holds %s", r.name, where)
		}
		if cap(s.chain.Layers) == 0 {
			t.Fatalf("after %s the pooled scratch kept no layer array", r.name)
		}
		dest.scratch.Put(s)
	}
	if inspected == 0 {
		t.Fatal("the pool never gave a scratch back")
	}
	for i, v := range kept {
		if !reflect.DeepEqual(v, keptFrom[i].want) {
			t.Errorf("request %d (%s) changed after later requests: %+v", i, keptFrom[i].name, v)
		}
	}
}

// TestConcurrentVerifyKeepsRequestsApart: goroutines verifying 8-layer,
// 2-layer and forged requests on one broker at once, under GOMAXPROCS
// 1, 2 and 8, each get their own request's Spec, Path, capabilities and
// error — never another's, never one torn by a scratch shared with
// another call. Run it under -race.
func TestConcurrentVerifyKeepsRequestsApart(t *testing.T) {
	now := time.Now()
	dest, reqs := poolFixture(t, now)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const goroutines, rounds = 8, 20
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if _, err := reqs[(g+i)%len(reqs)].check(dest, now); err != nil {
						errs <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("GOMAXPROCS %d: %v", procs, err)
		}
	}
}
