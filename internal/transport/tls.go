package transport

import (
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/pki"
)

// maxFrame bounds a single message on the wire (16 MB).
const maxFrame = 16 << 20

// TLSConfig bundles the material an entity needs for mutually
// authenticated TLS: its certificate, its private key, and the CA pool
// it accepts peers from (the SLA's "certificate of the issuing
// certificate authority").
type TLSConfig struct {
	CertDER []byte
	Key     identity.PrivateKey
	// RootDERs are the trusted CA certificates.
	RootDERs [][]byte
}

func (c *TLSConfig) build(server bool) (*tls.Config, error) {
	pool := x509.NewCertPool()
	for _, der := range c.RootDERs {
		cert, err := x509.ParseCertificate(der)
		if err != nil {
			return nil, fmt.Errorf("transport: parse root: %w", err)
		}
		pool.AddCert(cert)
	}
	tlsCert := tls.Certificate{Certificate: [][]byte{c.CertDER}, PrivateKey: c.Key.Signer()}
	cfg := &tls.Config{
		Certificates: []tls.Certificate{tlsCert},
		MinVersion:   tls.VersionTLS12,
	}
	if server {
		cfg.ClientAuth = tls.RequireAndVerifyClientCert
		cfg.ClientCAs = pool
	} else {
		cfg.RootCAs = pool
		// Peer brokers are addressed by DN, not hostname; identity is
		// established via the CA-verified certificate chain and checked
		// against the SLA-pinned DN at the signalling layer.
		cfg.InsecureSkipVerify = false
		cfg.ServerName = "bb" // all broker certs carry the "bb" SAN
	}
	return cfg, nil
}

// tlsConn frames messages over a TLS stream.
type tlsConn struct {
	conn     *tls.Conn
	peerDN   identity.DN
	peerCert []byte
	metrics  *Metrics
	sendMu   sync.Mutex
	recvMu   sync.Mutex
}

func newTLSConn(conn *tls.Conn, metrics *Metrics) (*tlsConn, error) {
	if err := conn.Handshake(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: TLS handshake: %w", err)
	}
	state := conn.ConnectionState()
	if len(state.PeerCertificates) == 0 {
		conn.Close()
		return nil, fmt.Errorf("transport: peer presented no certificate")
	}
	leaf := state.PeerCertificates[0]
	return &tlsConn{
		conn:     conn,
		peerDN:   pki.NameToDN(leaf.Subject),
		peerCert: leaf.Raw,
		metrics:  metrics,
	}, nil
}

func (c *tlsConn) Send(msg []byte) error {
	if len(msg) > maxFrame {
		return fmt.Errorf("transport: message of %d bytes exceeds frame limit", len(msg))
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := c.conn.Write(hdr[:]); err != nil {
		if IsTimeout(err) {
			c.metrics.timeout()
		}
		return fmt.Errorf("transport: write header: %w", err)
	}
	if _, err := c.conn.Write(msg); err != nil {
		if IsTimeout(err) {
			c.metrics.timeout()
		}
		return fmt.Errorf("transport: write body: %w", err)
	}
	return nil
}

func (c *tlsConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(c.conn, hdr[:]); err != nil {
		return nil, fmt.Errorf("transport: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: inbound frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.conn, buf); err != nil {
		return nil, fmt.Errorf("transport: read body: %w", err)
	}
	return buf, nil
}

// SetSendDeadline bounds writes only; expiry surfaces as a net.Error
// with Timeout() == true (matched by IsTimeout).
func (c *tlsConn) SetSendDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }

func (c *tlsConn) PeerDN() identity.DN { return c.peerDN }
func (c *tlsConn) PeerCertDER() []byte { return c.peerCert }
func (c *tlsConn) Close() error        { return c.conn.Close() }

// TLSListener wraps a TCP listener with mandatory mutual TLS.
type TLSListener struct {
	ln  net.Listener
	cfg *tls.Config

	// Metrics, when set before serving, counts accepted connections
	// and deadline expiries on them.
	Metrics *Metrics
}

// ListenTLS starts a mutually authenticated listener on addr
// (e.g. "127.0.0.1:0").
func ListenTLS(addr string, cfg *TLSConfig) (*TLSListener, error) {
	tcfg, err := cfg.build(true)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &TLSListener{ln: ln, cfg: tcfg}, nil
}

// Accept waits for and authenticates the next connection.
func (l *TLSListener) Accept() (Conn, error) {
	raw, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	conn, err := newTLSConn(tls.Server(raw, l.cfg), l.Metrics)
	if err != nil {
		return nil, err
	}
	l.Metrics.accept()
	return conn, nil
}

// Close stops the listener.
func (l *TLSListener) Close() error { return l.ln.Close() }

// Addr returns the bound address.
func (l *TLSListener) Addr() string { return l.ln.Addr().String() }

// TLSDialer dials mutually authenticated connections.
type TLSDialer struct {
	cfg *TLSConfig

	// Timeout bounds connection establishment — the TCP connect plus
	// the TLS handshake — when positive; zero waits forever. Without
	// it a peer that accepts TCP but never completes the handshake
	// (half-open host, wedged process) blocks Dial indefinitely,
	// before any per-call deadline can apply.
	Timeout time.Duration

	// Metrics, when set, counts dials, dial failures and deadline
	// expiries on dialed connections.
	Metrics *Metrics
}

// NewTLSDialer creates a dialer using the given identity material.
func NewTLSDialer(cfg *TLSConfig) *TLSDialer { return &TLSDialer{cfg: cfg} }

// Dial connects and authenticates to addr.
func (d *TLSDialer) Dial(addr string) (Conn, error) {
	tcfg, err := d.cfg.build(false)
	if err != nil {
		return nil, err
	}
	nd := net.Dialer{Timeout: d.Timeout}
	raw, err := nd.Dial("tcp", addr)
	if err != nil {
		d.Metrics.dialFailure()
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	if d.Timeout > 0 {
		raw.SetDeadline(time.Now().Add(d.Timeout))
	}
	conn, err := newTLSConn(tls.Client(raw, tcfg), d.Metrics)
	if err != nil {
		d.Metrics.dialFailure()
		return nil, err
	}
	if d.Timeout > 0 {
		raw.SetDeadline(time.Time{})
	}
	d.Metrics.dial()
	return conn, nil
}
