package certrepo

import (
	"testing"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
)

func fixture(t *testing.T) (*Repository, *pki.Certificate) {
	t.Helper()
	repoKey, err := identity.GenerateKeyPair(identity.NewDN("Grid", "", "repo"))
	if err != nil {
		t.Fatal(err)
	}
	repo := New(repoKey)
	ca, err := pki.NewCA(identity.NewDN("Grid", "A", "CA"))
	if err != nil {
		t.Fatal(err)
	}
	kp, err := identity.GenerateKeyPair(identity.NewDN("Grid", "A", "bb-a"))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.IssueIdentity(kp.DN, kp.Public(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Publish(cert); err != nil {
		t.Fatal(err)
	}
	return repo, cert
}

func TestLookupAndVerify(t *testing.T) {
	repo, cert := fixture(t)
	resp, err := repo.Lookup(cert.SubjectDN())
	if err != nil {
		t.Fatal(err)
	}
	got, err := VerifyResponse(resp, repo.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if !got.PublicKey().Equal(cert.PublicKey()) {
		t.Fatal("wrong certificate returned")
	}
	if repo.Lookups() != 1 {
		t.Errorf("lookups = %d", repo.Lookups())
	}
}

func TestLookupUnknown(t *testing.T) {
	repo, _ := fixture(t)
	if _, err := repo.Lookup("/CN=ghost"); err == nil {
		t.Fatal("unknown DN resolved")
	}
}

func TestVerifyResponseTamper(t *testing.T) {
	repo, cert := fixture(t)
	resp, err := repo.Lookup(cert.SubjectDN())
	if err != nil {
		t.Fatal(err)
	}
	resp.Subject = "/CN=other"
	if _, err := VerifyResponse(resp, repo.PublicKey()); err == nil {
		t.Fatal("tampered response accepted")
	}
}

func TestVerifyResponseWrongKey(t *testing.T) {
	repo, cert := fixture(t)
	resp, err := repo.Lookup(cert.SubjectDN())
	if err != nil {
		t.Fatal(err)
	}
	other, err := identity.GenerateKeyPair("/CN=evil-repo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyResponse(resp, other.Public()); err == nil {
		t.Fatal("response accepted under wrong repository key")
	}
}

func TestVerifyResponseStale(t *testing.T) {
	repo, cert := fixture(t)
	resp, err := repo.Lookup(cert.SubjectDN())
	if err != nil {
		t.Fatal(err)
	}
	resp.Issued = time.Now().Add(-time.Hour)
	// Staleness triggers before signature verification, so no need to
	// re-sign.
	if _, err := VerifyResponse(resp, repo.PublicKey()); err == nil {
		t.Fatal("stale response accepted")
	}
}

func TestDirectoryLookupKey(t *testing.T) {
	repo, cert := fixture(t)
	dir := &Directory{Repo: repo, TrustedKey: repo.PublicKey()}
	pub, err := dir.LookupKey(cert.SubjectDN())
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Equal(cert.PublicKey()) {
		t.Fatal("wrong key")
	}
	var nilDir *Directory
	if _, err := nilDir.LookupKey("/CN=x"); err == nil {
		t.Fatal("nil directory resolved a key")
	}
}
