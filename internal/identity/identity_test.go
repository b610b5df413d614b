package identity

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"
	"testing"
)

func TestNewDNAndComponents(t *testing.T) {
	dn := NewDN("Grid", "DomainA", "Alice")
	if got, want := string(dn), "/O=Grid/OU=DomainA/CN=Alice"; got != want {
		t.Fatalf("NewDN = %q, want %q", got, want)
	}
	if dn.CommonName() != "Alice" {
		t.Errorf("CommonName = %q", dn.CommonName())
	}
	if dn.Org() != "Grid" {
		t.Errorf("Org = %q", dn.Org())
	}
	if dn.Unit() != "DomainA" {
		t.Errorf("Unit = %q", dn.Unit())
	}
}

func TestNewDNOmitsEmpty(t *testing.T) {
	dn := NewDN("", "", "bb-a")
	if string(dn) != "/CN=bb-a" {
		t.Errorf("NewDN with only CN = %q", dn)
	}
	if dn.Org() != "" || dn.Unit() != "" {
		t.Error("missing components must be empty strings")
	}
}

func TestDNValid(t *testing.T) {
	valid := []DN{"/CN=x", "/O=Grid/CN=a", NewDN("a", "b", "c")}
	for _, d := range valid {
		if !d.Valid() {
			t.Errorf("DN %q should be valid", d)
		}
	}
	invalid := []DN{"", "CN=x", "/CN=", "/=x", "/CN", "/", "/CN=x/", "/O=a//CN=x", "/O=a/CN"}
	for _, d := range invalid {
		if d.Valid() {
			t.Errorf("DN %q should be invalid", d)
		}
	}
}

func TestGenerateKeyPairRejectsInvalidDN(t *testing.T) {
	if _, err := GenerateKeyPair("not-a-dn"); err == nil {
		t.Fatal("expected error for invalid DN")
	}
}

func TestSignVerify(t *testing.T) {
	kp, err := GenerateKeyPair(NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("reservation request: 10Mb/s A->C")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(kp.Public(), msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := Verify(kp.Public(), append(msg, 'x'), sig); err == nil {
		t.Fatal("tampered message accepted")
	}
	other, _ := GenerateKeyPair(NewDN("Grid", "B", "bob"))
	if err := Verify(other.Public(), msg, sig); err == nil {
		t.Fatal("signature accepted under wrong key")
	}
}

func TestSignNilKey(t *testing.T) {
	var kp *KeyPair
	if _, err := kp.Sign([]byte("x")); err == nil {
		t.Fatal("nil key pair should fail to sign")
	}
	if err := Verify(nil, []byte("x"), []byte("y")); err == nil {
		t.Fatal("nil public key should fail to verify")
	}
}

// TestWrongLengthsAreErrors: the standard library panics on a key of
// the wrong length; keys reach Verify from certificates off the wire,
// so here every wrong length is an error.
func TestWrongLengthsAreErrors(t *testing.T) {
	kp, err := GenerateKeyPair(NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("m")
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	pub := kp.Public()
	for _, n := range []int{0, 1, 31, 33, 64} {
		if err := Verify(make(PublicKey, n), msg, sig); err == nil {
			t.Errorf("public key of %d bytes verified", n)
		}
	}
	for _, n := range []int{0, 1, 63, 65, 128} {
		if err := Verify(pub, msg, make([]byte, n)); err == nil {
			t.Errorf("signature of %d bytes verified", n)
		}
	}
	for _, n := range []int{0, 1, 32, 63, 65} {
		priv := make(PrivateKey, n)
		if _, err := (&KeyPair{DN: kp.DN, Private: priv}).AppendSign(nil, msg); err == nil {
			t.Errorf("private key of %d bytes signed", n)
		}
		if _, err := (&KeyPair{DN: kp.DN, Private: priv}).Sign(msg); err == nil {
			t.Errorf("key pair with a private key of %d bytes signed", n)
		}
		if priv.Public() != nil {
			t.Errorf("private key of %d bytes has a public half", n)
		}
		if _, err := MarshalPrivateKey(priv); err == nil {
			t.Errorf("private key of %d bytes marshalled", n)
		}
	}
	if (PublicKey{}).Equal(PublicKey{}) || PublicKey(nil).Equal(nil) {
		t.Error("an empty public key equals something")
	}
}

// TestSignaturesAreDeterministic: the same key and message give the
// same bytes, so a retransmitted layer is byte-identical to the first.
func TestSignaturesAreDeterministic(t *testing.T) {
	kp, err := GenerateKeyPair(NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := kp.Sign([]byte("same message"))
	b, _ := kp.Sign([]byte("same message"))
	if len(a) != 64 || !bytes.Equal(a, b) {
		t.Fatalf("two signatures of one message differ or are not 64 bytes:\n%x\n%x", a, b)
	}
}

func TestPrivateKeyRoundTrip(t *testing.T) {
	kp, err := GenerateKeyPair(NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	der, err := MarshalPrivateKey(kp.Private)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := ParsePrivateKey(der)
	if err != nil {
		t.Fatal(err)
	}
	if !priv.Public().Equal(kp.Public()) {
		t.Fatal("private key round trip mismatch")
	}
	if _, err := ParsePrivateKey([]byte("garbage")); err == nil {
		t.Fatal("garbage DER parsed as a private key")
	}
}

// TestOtherAlgorithmsRefusedByName: a well-formed P-256 key in either
// place a key is read from is ErrKeyAlgorithm, not a nil key.
func TestOtherAlgorithmsRefusedByName(t *testing.T) {
	p256, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pkcs8, err := x509.MarshalPKCS8PrivateKey(p256)
	if err != nil {
		t.Fatal(err)
	}
	if priv, err := ParsePrivateKey(pkcs8); !errors.Is(err, ErrKeyAlgorithm) || priv != nil {
		t.Errorf("ParsePrivateKey(P-256): err = %v, want ErrKeyAlgorithm", err)
	}
	if pub, err := SubjectKey(&x509.Certificate{PublicKey: &p256.PublicKey, PublicKeyAlgorithm: x509.ECDSA}); !errors.Is(err, ErrKeyAlgorithm) || pub != nil {
		t.Errorf("SubjectKey(P-256): key %x, err = %v, want ErrKeyAlgorithm", pub, err)
	}
}

// TestVerifyAllocationFree: a signature check allocates nothing, which
// is what lets a warm layer of core.Broker.Verify cost 7 allocations.
func TestVerifyAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	kp, err := GenerateKeyPair(NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	pub, msg := kp.Public(), make([]byte, 4096)
	sig, err := kp.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Verify(pub, msg, sig); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Verify allocates %.0f objects per call, want 0", allocs)
	}
}

// FuzzVerify: no key, message or signature bytes make Verify panic, and
// a valid triple stops verifying when any one bit of the key, the
// message or the signature is flipped.
func FuzzVerify(f *testing.F) {
	kp, err := GenerateKeyPair(NewDN("Grid", "A", "alice"))
	if err != nil {
		f.Fatal(err)
	}
	sig, err := kp.Sign([]byte("seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(kp.Public()), []byte("seed"), sig, uint16(0))
	f.Add([]byte(kp.Public()), []byte("seed"), sig[:63], uint16(7))
	f.Add([]byte(kp.Public()[:31]), []byte("seed"), sig, uint16(300))
	f.Add([]byte(nil), []byte(nil), []byte(nil), uint16(0))
	f.Add(make([]byte, 32), []byte{}, make([]byte, 64), uint16(511))
	f.Fuzz(func(t *testing.T, key, msg, sig []byte, bit uint16) {
		if Verify(PublicKey(key), msg, sig) == nil && len(key) != 32 {
			t.Fatalf("a signature verified under a key of %d bytes", len(key))
		}

		good, err := kp.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		pub := append(PublicKey(nil), kp.Public()...)
		if err := Verify(pub, msg, good); err != nil {
			t.Fatalf("genuine signature refused: %v", err)
		}
		// One flipped bit, in whichever of the three the index lands in.
		parts := [][]byte{pub, append([]byte(nil), msg...), good}
		i := int(bit) % (8 * (len(parts[0]) + len(parts[1]) + len(parts[2])))
		for _, p := range parts {
			if i < 8*len(p) {
				p[i/8] ^= 1 << (i % 8)
				break
			}
			i -= 8 * len(p)
		}
		if Verify(PublicKey(parts[0]), parts[1], parts[2]) == nil {
			t.Fatalf("bit %d flipped and the signature still verifies", bit)
		}
	})
}

// BenchmarkSignVerify records the price of one envelope layer,
// approval or certificate check (make bench-chain).
func BenchmarkSignVerify(b *testing.B) {
	kp, err := GenerateKeyPair(NewDN("Grid", "A", "alice"))
	if err != nil {
		b.Fatal(err)
	}
	pub := kp.Public()
	for _, size := range []int{256, 4096} {
		msg := make([]byte, size)
		sig, err := kp.Sign(msg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Sign/%dB", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kp.Sign(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Verify/%dB", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Verify(pub, msg, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAppendSignAllocationFree: a signature appended behind the bytes it
// covers, into a buffer with room for it, costs no allocation, and is
// the signature Sign makes.
func TestAppendSignAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	kp, err := GenerateKeyPair("/CN=signer")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 300, 300+SignatureSize)
	copy(buf, "the layer a broker seals")
	want, err := kp.Sign(buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	if allocs := testing.AllocsPerRun(100, func() {
		if got, err = kp.AppendSign(buf, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("AppendSign into a buffer with room allocates %.0f objects, want none", allocs)
	}
	if !bytes.Equal(got[:len(buf)], buf) || !bytes.Equal(got[len(buf):], want) {
		t.Error("AppendSign's signature is not Sign's, or it moved the bytes it covers")
	}
}
