package transport

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
)

func TestMemoryDialRecvSend(t *testing.T) {
	n := NewNetwork(0)
	server := n.NewEndpoint("/CN=bb-a", []byte("cert-a"))
	client := n.NewEndpoint("/CN=alice", []byte("cert-alice"))
	ln, err := server.Listen("bb-a")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if conn.PeerDN() != "/CN=alice" {
			t.Errorf("server sees peer %s", conn.PeerDN())
		}
		if !bytes.Equal(conn.PeerCertDER(), []byte("cert-alice")) {
			t.Error("server got wrong peer cert")
		}
		msg, err := conn.Recv()
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.Send(append([]byte("echo:"), msg...)); err != nil {
			t.Error(err)
		}
	}()

	conn, err := client.Dial("bb-a")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.PeerDN() != "/CN=bb-a" {
		t.Errorf("client sees peer %s", conn.PeerDN())
	}
	if err := conn.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "echo:hello" {
		t.Errorf("reply = %q", reply)
	}
	wg.Wait()
}

func TestMemoryDialUnknownAddr(t *testing.T) {
	n := NewNetwork(0)
	ep := n.NewEndpoint("/CN=x", nil)
	if _, err := ep.Dial("nowhere"); err == nil {
		t.Fatal("dial to unknown address succeeded")
	}
}

func TestMemoryDuplicateListen(t *testing.T) {
	n := NewNetwork(0)
	ep := n.NewEndpoint("/CN=x", nil)
	if _, err := ep.Listen("addr"); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Listen("addr"); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
}

func TestMemoryListenerCloseReleasesAddr(t *testing.T) {
	n := NewNetwork(0)
	ep := n.NewEndpoint("/CN=x", nil)
	ln, err := ep.Listen("addr")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Listen("addr"); err != nil {
		t.Fatalf("address not released: %v", err)
	}
}

func TestMemoryLatencyApplied(t *testing.T) {
	n := NewNetwork(5 * time.Millisecond)
	server := n.NewEndpoint("/CN=s", nil)
	client := n.NewEndpoint("/CN=c", nil)
	ln, err := server.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		_ = conn.Send(msg)
	}()
	start := time.Now()
	conn, err := client.Dial("s") // 1 latency
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // + 2 latencies round trip
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 15*time.Millisecond {
		t.Errorf("elapsed = %v, want >= 15ms (dial + rtt at 5ms one-way)", elapsed)
	}
}

func TestMemoryAccounting(t *testing.T) {
	n := NewNetwork(0)
	server := n.NewEndpoint("/CN=s", nil)
	client := n.NewEndpoint("/CN=c", nil)
	ln, err := server.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		for i := 0; i < 3; i++ {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	}()
	conn, err := client.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := conn.Send([]byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if n.Messages() != 3 || n.Bytes() != 12 {
		t.Errorf("msgs=%d bytes=%d, want 3/12", n.Messages(), n.Bytes())
	}
	n.ResetCounters()
	if n.Messages() != 0 || n.Bytes() != 0 {
		t.Error("counters not reset")
	}
}

func TestMemorySendAfterClose(t *testing.T) {
	n := NewNetwork(0)
	server := n.NewEndpoint("/CN=s", nil)
	client := n.NewEndpoint("/CN=c", nil)
	ln, err := server.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := ln.Accept()
		if err == nil {
			c.Close()
		}
	}()
	conn, err := client.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := conn.Send([]byte("x")); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// --- TLS ------------------------------------------------------------------

// tlsFixture builds a CA, broker identities and a live listener.
func tlsFixture(t *testing.T) (serverCfg, clientCfg *TLSConfig, caDER []byte) {
	t.Helper()
	ca, err := pki.NewCA(identity.NewDN("Grid", "", "RootCA"))
	if err != nil {
		t.Fatal(err)
	}
	srvKey, err := identity.GenerateKeyPair(identity.NewDN("Grid", "DomainA", "bb-a"))
	if err != nil {
		t.Fatal(err)
	}
	srvCert, err := ca.IssueIdentity(srvKey.DN, srvKey.Public(), 0, "bb")
	if err != nil {
		t.Fatal(err)
	}
	cliKey, err := identity.GenerateKeyPair(identity.NewDN("Grid", "DomainB", "bb-b"))
	if err != nil {
		t.Fatal(err)
	}
	cliCert, err := ca.IssueIdentity(cliKey.DN, cliKey.Public(), 0, "bb")
	if err != nil {
		t.Fatal(err)
	}
	roots := [][]byte{ca.CertificateDER()}
	return &TLSConfig{CertDER: srvCert.DER, Key: srvKey.Private, RootDERs: roots},
		&TLSConfig{CertDER: cliCert.DER, Key: cliKey.Private, RootDERs: roots},
		ca.CertificateDER()
}

func TestTLSMutualAuthRoundTrip(t *testing.T) {
	serverCfg, clientCfg, _ := tlsFixture(t)
	ln, err := ListenTLS("127.0.0.1:0", serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type result struct {
		dn  identity.DN
		err error
	}
	got := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- result{err: err}
			return
		}
		defer conn.Close()
		msg, err := conn.Recv()
		if err != nil {
			got <- result{err: err}
			return
		}
		if err := conn.Send(msg); err != nil {
			got <- result{err: err}
			return
		}
		got <- result{dn: conn.PeerDN()}
	}()

	dialer := NewTLSDialer(clientCfg)
	conn, err := dialer.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.PeerDN() != identity.NewDN("Grid", "DomainA", "bb-a") {
		t.Errorf("client sees server DN %s", conn.PeerDN())
	}
	if len(conn.PeerCertDER()) == 0 {
		t.Error("no peer certificate captured")
	}
	payload := bytes.Repeat([]byte("x"), 10_000)
	if err := conn.Send(payload); err != nil {
		t.Fatal(err)
	}
	echo, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(echo, payload) {
		t.Error("echo mismatch")
	}
	r := <-got
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.dn != identity.NewDN("Grid", "DomainB", "bb-b") {
		t.Errorf("server sees client DN %s", r.dn)
	}
}

func TestTLSRejectsUntrustedClient(t *testing.T) {
	serverCfg, _, caDER := tlsFixture(t)
	ln, err := ListenTLS("127.0.0.1:0", serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	// A client with a certificate from a different CA must be refused.
	rogueCA, err := pki.NewCA(identity.NewDN("Evil", "", "CA"))
	if err != nil {
		t.Fatal(err)
	}
	key, err := identity.GenerateKeyPair(identity.NewDN("Evil", "", "mallory"))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := rogueCA.IssueIdentity(key.DN, key.Public(), 0, "bb")
	if err != nil {
		t.Fatal(err)
	}
	rogue := NewTLSDialer(&TLSConfig{CertDER: cert.DER, Key: key.Private, RootDERs: [][]byte{caDER}})
	conn, err := rogue.Dial(ln.Addr())
	if err == nil {
		// Client-auth failure may only surface on first use.
		err = conn.Send([]byte("hi"))
		if err == nil {
			_, err = conn.Recv()
		}
		conn.Close()
	}
	if err == nil {
		t.Fatal("untrusted client was accepted")
	}
}

func TestTLSFrameLimit(t *testing.T) {
	serverCfg, clientCfg, _ := tlsFixture(t)
	ln, err := ListenTLS("127.0.0.1:0", serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			defer conn.Close()
			_, _ = conn.Recv()
		}
	}()
	conn, err := NewTLSDialer(clientCfg).Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
