package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"e2eqos/internal/identity"
)

// ErrClosed is returned by operations on a closed connection or
// listener.
var ErrClosed = errors.New("transport: closed")

// Network is an in-process message network. Endpoints register
// listeners under string addresses; dialing performs an implicit
// mutual-authentication handshake (each side learns the other's DN and
// certificate, standing in for the TLS handshake). Every message is
// delivered after the configured one-way latency, and global counters
// record message and byte volumes for the experiments.
type Network struct {
	// Latency is the one-way delivery delay applied to every message
	// (and to connection establishment, once per dial).
	Latency time.Duration

	// Metrics, when set before use, counts dials, accepts and
	// deadline expiries network-wide (per-domain attribution is done
	// at the broker layer; the network is shared).
	Metrics *Metrics

	mu        sync.Mutex
	listeners map[string]*memListener

	msgs  atomic.Int64
	bytes atomic.Int64
}

// NewNetwork creates a network with the given one-way latency.
func NewNetwork(latency time.Duration) *Network {
	return &Network{Latency: latency, listeners: make(map[string]*memListener)}
}

// Messages returns the total messages sent over this network.
func (n *Network) Messages() int64 { return n.msgs.Load() }

// Bytes returns the total payload bytes sent.
func (n *Network) Bytes() int64 { return n.bytes.Load() }

// ResetCounters zeroes the accounting, between experiment runs.
func (n *Network) ResetCounters() {
	n.msgs.Store(0)
	n.bytes.Store(0)
}

// Endpoint is one named party on the network. The DN and certificate
// are presented to peers during the handshake.
type Endpoint struct {
	net     *Network
	dn      identity.DN
	certDER []byte
}

// NewEndpoint creates an endpoint for dn with an optional certificate.
func (n *Network) NewEndpoint(dn identity.DN, certDER []byte) *Endpoint {
	return &Endpoint{net: n, dn: dn, certDER: certDER}
}

// Listen registers the endpoint under addr.
func (e *Endpoint) Listen(addr string) (Listener, error) {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if _, exists := e.net.listeners[addr]; exists {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	l := &memListener{
		net:     e.net,
		ep:      e,
		addr:    addr,
		backlog: make(chan *memConn, 64),
		closed:  make(chan struct{}),
	}
	e.net.listeners[addr] = l
	return l, nil
}

// Dial connects to addr, waiting one latency for the handshake. A full
// or closed listener refuses before the handshake latency is paid.
func (e *Endpoint) Dial(addr string) (Conn, error) {
	e.net.mu.Lock()
	l, ok := e.net.listeners[addr]
	e.net.mu.Unlock()
	if !ok {
		e.net.Metrics.dialFailure()
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	clientSide, serverSide := newMemPair(e.net, e, l.ep)
	if err := l.enqueue(serverSide); err != nil {
		// Closing one half closes the shared pair state, so the
		// refused server-side conn cannot strand a future Accept.
		clientSide.Close()
		e.net.Metrics.dialFailure()
		return nil, err
	}
	e.net.Metrics.dial()
	if e.net.Latency > 0 {
		time.Sleep(e.net.Latency)
	}
	return clientSide, nil
}

type memListener struct {
	net     *Network
	ep      *Endpoint
	addr    string
	backlog chan *memConn

	mu        sync.Mutex // guards shut and the backlog drain on close
	shut      bool
	closed    chan struct{}
	closeOnce sync.Once
}

// enqueue hands a dialed server-side conn to the listener, refusing
// when the listener is closed or the backlog is full.
func (l *memListener) enqueue(c *memConn) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.shut {
		return fmt.Errorf("transport: listener at %q closed: %w", l.addr, ErrClosed)
	}
	select {
	case l.backlog <- c:
		return nil
	default:
		return fmt.Errorf("transport: listener at %q backlog full", l.addr)
	}
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		l.net.Metrics.accept()
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		l.shut = true
		close(l.closed)
		// Refuse queued dials: their server halves were never accepted
		// and would otherwise leave the dialers blocking forever.
	drain:
		for {
			select {
			case c := <-l.backlog:
				c.Close()
			default:
				break drain
			}
		}
		l.mu.Unlock()
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

// timedMsg carries the payload plus its delivery deadline.
type timedMsg struct {
	data      []byte
	deliverAt time.Time
}

// pairState is the shared shutdown latch of the two half-connections.
type pairState struct {
	done chan struct{}
	once sync.Once
}

func (p *pairState) close() { p.once.Do(func() { close(p.done) }) }

type memConn struct {
	net      *Network
	peerDN   identity.DN
	peerCert []byte
	out      chan timedMsg
	in       chan timedMsg
	pair     *pairState
	done     chan struct{}

	dlMu         sync.Mutex
	sendDeadline time.Time
}

// newMemPair wires two half-connections together.
func newMemPair(n *Network, client, server *Endpoint) (*memConn, *memConn) {
	aToB := make(chan timedMsg, 256)
	bToA := make(chan timedMsg, 256)
	pair := &pairState{done: make(chan struct{})}
	c := &memConn{net: n, peerDN: server.dn, peerCert: server.certDER, out: aToB, in: bToA, pair: pair, done: pair.done}
	s := &memConn{net: n, peerDN: client.dn, peerCert: client.certDER, out: bToA, in: aToB, pair: pair, done: pair.done}
	return c, s
}

// SetSendDeadline bounds subsequent Send calls.
func (c *memConn) SetSendDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.sendDeadline = t
	c.dlMu.Unlock()
	return nil
}

// sendExpiry arms a timer for the send deadline. The returned channel
// is nil (never fires) when no deadline is set; stop releases the timer
// and is safe to call either way.
func (c *memConn) sendExpiry() (<-chan time.Time, func()) {
	c.dlMu.Lock()
	d := c.sendDeadline
	c.dlMu.Unlock()
	if d.IsZero() {
		return nil, func() {}
	}
	t := time.NewTimer(time.Until(d))
	return t.C, func() { t.Stop() }
}

func (c *memConn) Send(msg []byte) error {
	// Deterministically refuse once closed; the select below would
	// otherwise pick randomly between the buffered queue and done.
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	cp := make([]byte, len(msg))
	copy(cp, msg)
	tm := timedMsg{data: cp, deliverAt: time.Now().Add(c.net.Latency)}
	// Counted before it is queued, so that whoever receives the message,
	// or an answer to it, finds it counted; a send that fails takes its
	// count back.
	c.net.msgs.Add(1)
	c.net.bytes.Add(int64(len(msg)))
	// The queue is tried before a deadline timer is armed: a sender that
	// bounds every frame would otherwise build one per message and wait
	// on none of them.
	select {
	case c.out <- tm:
	default:
		timeout, stop := c.sendExpiry()
		defer stop()
		select {
		case c.out <- tm:
		case <-c.done:
			c.uncount(len(msg))
			return ErrClosed
		case <-timeout:
			c.uncount(len(msg))
			c.net.Metrics.timeout()
			return ErrTimeout
		}
	}
	return nil
}

// uncount takes back the count of a message Send could not queue.
func (c *memConn) uncount(size int) {
	c.net.msgs.Add(-1)
	c.net.bytes.Add(-int64(size))
}

func (c *memConn) Recv() ([]byte, error) {
	select {
	case m := <-c.in:
		return deliver(m), nil
	case <-c.done:
		// Drain any already queued message to preserve FIFO semantics
		// on graceful close.
		select {
		case m := <-c.in:
			return deliver(m), nil
		default:
			return nil, ErrClosed
		}
	}
}

// deliver waits out the modelled propagation latency of a received
// message.
func deliver(m timedMsg) []byte {
	time.Sleep(time.Until(m.deliverAt))
	return m.data
}

func (c *memConn) PeerDN() identity.DN { return c.peerDN }
func (c *memConn) PeerCertDER() []byte { return c.peerCert }

func (c *memConn) Close() error {
	c.pair.close()
	return nil
}
