package pki

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"e2eqos/internal/identity"
)

func TestCertPEMRoundTrip(t *testing.T) {
	ca := mustCA(t, "PEMRoot")
	kp := mustKey(t, identity.NewDN("Grid", "A", "alice"))
	cert, err := ca.IssueIdentity(kp.DN, kp.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}
	pemBytes := EncodeCertPEM(cert.DER)
	decoded, err := DecodeCertPEM(pemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.SubjectDN() != kp.DN {
		t.Errorf("subject = %s", decoded.SubjectDN())
	}
	if _, err := DecodeCertPEM([]byte("not pem")); err == nil {
		t.Error("junk decoded as certificate")
	}
	// A key block is not a certificate.
	keyPEM, err := EncodeKeyPEM(kp.Private)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCertPEM(keyPEM); err == nil {
		t.Error("key block decoded as certificate")
	}
}

func TestKeyPEMRoundTrip(t *testing.T) {
	kp := mustKey(t, identity.NewDN("Grid", "A", "alice"))
	pemBytes, err := EncodeKeyPEM(kp.Private)
	if err != nil {
		t.Fatal(err)
	}
	key, err := DecodeKeyPEM(pemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if !key.Public().Equal(kp.Public()) {
		t.Error("key round trip mismatch")
	}
	if _, err := DecodeKeyPEM([]byte("garbage")); err == nil {
		t.Error("junk decoded as key")
	}
}

// TestDecodeKeyPEMRefusesOtherAlgorithms: a key file written for
// another signature algorithm is refused by name — the SEC 1 block the
// tooling used to write, and a PKCS#8 block holding a P-256 key — even
// when a usable key follows it in the same file.
func TestDecodeKeyPEMRefusesOtherAlgorithms(t *testing.T) {
	p256, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sec1, err := x509.MarshalECPrivateKey(p256)
	if err != nil {
		t.Fatal(err)
	}
	pkcs8, err := x509.MarshalPKCS8PrivateKey(p256)
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeKeyPEM(mustKey(t, identity.NewDN("Grid", "A", "alice")).Private)
	if err != nil {
		t.Fatal(err)
	}
	for name, block := range map[string]*pem.Block{
		"EC PRIVATE KEY":    {Type: "EC PRIVATE KEY", Bytes: sec1},
		"PKCS#8 P-256":      {Type: "PRIVATE KEY", Bytes: pkcs8},
		"RSA PRIVATE KEY":   {Type: "RSA PRIVATE KEY", Bytes: []byte("whatever")},
		"ENCRYPTED PRIVATE": {Type: "ENCRYPTED PRIVATE KEY", Bytes: []byte("whatever")},
	} {
		data := append(pem.EncodeToMemory(block), good...)
		key, err := DecodeKeyPEM(data)
		if !errors.Is(err, identity.ErrKeyAlgorithm) {
			t.Errorf("%s: err = %v, want identity.ErrKeyAlgorithm", name, err)
		}
		if key != nil {
			t.Errorf("%s: a key came back beside the error", name)
		}
	}
}

func TestSaveLoadFiles(t *testing.T) {
	dir := t.TempDir()
	ca := mustCA(t, "FileRoot")
	kp := mustKey(t, identity.NewDN("Grid", "A", "bb-a"))
	cert, err := ca.IssueIdentity(kp.DN, kp.Public(), 0, "bb")
	if err != nil {
		t.Fatal(err)
	}
	certPath := filepath.Join(dir, "bb.cert.pem")
	keyPath := filepath.Join(dir, "bb.key.pem")
	if err := SaveCertFile(certPath, cert.DER); err != nil {
		t.Fatal(err)
	}
	if err := SaveKeyFile(keyPath, kp.Private); err != nil {
		t.Fatal(err)
	}
	// Key files must not be world readable.
	if info, err := os.Stat(keyPath); err != nil || info.Mode().Perm() != 0o600 {
		t.Errorf("key file mode = %v err=%v", info.Mode(), err)
	}
	loadedCert, err := LoadCertFile(certPath)
	if err != nil {
		t.Fatal(err)
	}
	if loadedCert.SubjectDN() != kp.DN {
		t.Errorf("subject = %s", loadedCert.SubjectDN())
	}
	loadedKey, err := LoadKeyFile(keyPath, kp.DN)
	if err != nil {
		t.Fatal(err)
	}
	if !loadedKey.Public().Equal(kp.Public()) {
		t.Error("loaded key mismatch")
	}
	if _, err := LoadCertFile(filepath.Join(dir, "missing.pem")); err == nil {
		t.Error("missing cert file loaded")
	}
	if _, err := LoadKeyFile(filepath.Join(dir, "missing.pem"), kp.DN); err == nil {
		t.Error("missing key file loaded")
	}
}

func TestLoadCA(t *testing.T) {
	dir := t.TempDir()
	orig := mustCA(t, "Persisted")
	certPath := filepath.Join(dir, "ca.cert.pem")
	keyPath := filepath.Join(dir, "ca.key.pem")
	if err := SaveCertFile(certPath, orig.CertificateDER()); err != nil {
		t.Fatal(err)
	}
	if err := SaveKeyFile(keyPath, orig.Key().Private); err != nil {
		t.Fatal(err)
	}
	caCert, err := LoadCertFile(certPath)
	if err != nil {
		t.Fatal(err)
	}
	caKey, err := LoadKeyFile(keyPath, caCert.SubjectDN())
	if err != nil {
		t.Fatal(err)
	}
	ca, err := LoadCA(caCert, caKey)
	if err != nil {
		t.Fatal(err)
	}
	if ca.DN() != orig.DN() {
		t.Errorf("DN = %s", ca.DN())
	}
	// The reloaded CA can issue certificates verifiable against the
	// original root.
	kp := mustKey(t, identity.NewDN("Grid", "A", "late-joiner"))
	cert, err := ca.IssueIdentity(kp.DN, kp.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.CheckSignedBy(orig.Key().Public()); err != nil {
		t.Errorf("issued cert fails against original CA key: %v", err)
	}
	// Mismatched key is refused.
	other := mustKey(t, identity.NewDN("Grid", "", "other"))
	if _, err := LoadCA(caCert, other); err == nil {
		t.Error("LoadCA accepted mismatched key")
	}
	if _, err := LoadCA(nil, caKey); err == nil {
		t.Error("LoadCA accepted nil certificate")
	}
}
