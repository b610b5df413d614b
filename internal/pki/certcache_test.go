package pki

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/identity"
)

// TestCertCacheBound streams more distinct valid certificates through
// the cache than it may hold: it never exceeds its bound, the newest
// entry is always present, and a hit returns the very value added.
func TestCertCacheBound(t *testing.T) {
	ca := mustCA(t, "CacheCA")
	key := mustKey(t, identity.NewDN("Grid", "A", "holder"))
	var cache CertCache
	for i := 0; i < certCacheBound+40; i++ {
		// Same subject and key, fresh serial: distinct DER every time.
		cert, err := ca.IssueIdentity(key.DN, key.Public(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := cache.Get(cert.DER); ok {
			t.Fatalf("certificate %d found before it was added", i)
		}
		cache.Add(cert)
		cache.Add(cert) // adding what is held evicts nothing
		if n := len(cache.certs); n > certCacheBound || (i < certCacheBound && n != i+1) {
			t.Fatalf("after %d adds the cache holds %d (bound %d)", i+1, n, certCacheBound)
		}
		if got, ok := cache.Get(cert.DER); !ok || got != cert {
			t.Fatalf("certificate %d not returned after Add", i)
		}
	}
}

// TestTrustStoreRootReplacementForgetsCACheck: the CA signature on a
// certificate is checked once per root key. Replacing the root under
// the same DN drops what was remembered, the certificate is judged
// against the new key (and refused), and restoring the old root makes
// it pass again by a fresh check; the validity window is looked at on
// every call, remembered or not.
func TestTrustStoreRootReplacementForgetsCACheck(t *testing.T) {
	ca := mustCA(t, "RootCA")
	alice := mustKey(t, identity.NewDN("Grid", "A", "Alice"))
	cert, err := ca.IssueIdentity(alice.DN, alice.Public(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(3)
	root := &Certificate{Cert: ca.Certificate(), DER: ca.CertificateDER()}
	if err := ts.AddRoot(root); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i := 0; i < 2; i++ {
		if _, err := ts.DirectlyTrusted(cert, now); err != nil {
			t.Fatalf("call %d: root-signed certificate refused: %v", i, err)
		}
	}
	if len(ts.caChecked) != 1 {
		t.Fatalf("remembered CA checks = %d, want 1", len(ts.caChecked))
	}
	if _, err := ts.DirectlyTrusted(cert, now.Add(2*time.Hour)); err == nil {
		t.Fatal("a remembered CA check let an expired certificate through")
	}
	// A different CA key under the same DN.
	imposter := mustCA(t, "RootCA")
	if err := ts.AddRoot(&Certificate{Cert: imposter.Certificate(), DER: imposter.CertificateDER()}); err != nil {
		t.Fatal(err)
	}
	if len(ts.caChecked) != 0 {
		t.Fatalf("AddRoot kept %d remembered CA checks", len(ts.caChecked))
	}
	if _, err := ts.DirectlyTrusted(cert, now); err == nil {
		t.Fatal("certificate still trusted after its root was replaced")
	}
	if len(ts.caChecked) != 0 {
		t.Fatal("a failed CA check was remembered")
	}
	if err := ts.AddRoot(root); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.DirectlyTrusted(cert, now); err != nil {
		t.Fatalf("restored root: %v", err)
	}
}

// TestTrustStoreConcurrentVerifyAndPin runs eight verifiers beside a
// writer that keeps pinning peers and re-adding the root. DirectlyTrusted
// holds the store's lock for its map reads only, so the writer is never
// queued behind a signature check (nor the verifiers behind the writer);
// under -race this is also the proof that the remembered CA checks are
// written and dropped under the lock.
func TestTrustStoreConcurrentVerifyAndPin(t *testing.T) {
	ca := mustCA(t, "RootCA")
	root := &Certificate{Cert: ca.Certificate(), DER: ca.CertificateDER()}
	ts := NewTrustStore(3)
	if err := ts.AddRoot(root); err != nil {
		t.Fatal(err)
	}
	const verifiers = 8
	certs := make([]*Certificate, verifiers)
	for i := range certs {
		kp := mustKey(t, identity.NewDN("Grid", "A", fmt.Sprintf("user-%d", i)))
		cert, err := ca.IssueIdentity(kp.DN, kp.Public(), 0)
		if err != nil {
			t.Fatal(err)
		}
		certs[i] = cert
	}
	peer := mustKey(t, identity.NewDN("Grid", "B", "bb-b"))
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ts.PinPeer(peer.DN, peer.Public())
			if i%16 == 0 {
				if err := ts.AddRoot(root); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	now := time.Now()
	for v := 0; v < verifiers; v++ {
		readers.Add(1)
		go func(v int) {
			defer readers.Done()
			for i := 0; i < 200; i++ {
				cert := certs[(v+i)%verifiers]
				pub, err := ts.DirectlyTrusted(cert, now)
				if err != nil {
					t.Errorf("verifier %d: %v", v, err)
					return
				}
				if !pub.Equal(cert.PublicKey()) {
					t.Errorf("verifier %d: wrong key", v)
					return
				}
			}
		}(v)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
