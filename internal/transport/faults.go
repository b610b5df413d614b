package transport

import (
	"bytes"
	"errors"
	"sync"
	"time"

	"e2eqos/internal/identity"
)

// Script picks the fault for one message on a connection dialled to
// addr: send is whether the dialling side is sending the message or has
// just received it. It is called concurrently, on the goroutine that
// moves the message, so a script that blocks holds its message back,
// and everything behind it on that connection: a script that sleeps
// delays its message.
type Script func(addr string, send bool, msg []byte) FaultAction

// FaultAction is a Script's decision for one message.
type FaultAction int

const (
	// FaultPass lets the message through untouched.
	FaultPass FaultAction = iota
	// FaultDrop discards it silently. A dropped send reports success,
	// so the sender only notices at its deadline; a dropped receive is
	// a lost response to a request that was processed downstream, and
	// the reader keeps waiting for the next message.
	FaultDrop
	// FaultDuplicate delivers it twice, back to back.
	FaultDuplicate
	// FaultHang blocks the operation until the connection is closed or,
	// for a send, its send deadline passes: a hung peer.
	FaultHang
	// FaultReset closes the connection and fails the operation, like a
	// TCP RST.
	FaultReset
)

// errReset is what an operation a Script reset returns.
var errReset = errors.New("transport: injected connection reset")

// FaultyDialer wraps a Dialer so that a Script decides the fate of
// every message on the connections it opens. Used by the robustness
// tests and the `-exp faults` experiment to subject the signalling
// chain to per-hop failure; the wrapped connections still authenticate
// normally.
type FaultyDialer struct {
	inner  Dialer
	script Script
}

// NewFaultyDialer wraps inner, asking script about each message.
func NewFaultyDialer(inner Dialer, script Script) *FaultyDialer {
	return &FaultyDialer{inner: inner, script: script}
}

// Dial opens a fault-wrapped connection.
func (d *FaultyDialer) Dial(addr string) (Conn, error) {
	c, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &faultyConn{inner: c, script: d.script, addr: addr, closed: make(chan struct{})}, nil
}

// faultyConn injects faults around an underlying Conn. It tracks the
// send deadline itself so an injected hang still honours
// SetSendDeadline.
type faultyConn struct {
	inner  Conn
	script Script
	addr   string
	// again holds the second copy of a received message the Script
	// asked to duplicate, for the next Recv (one reader per connection).
	again []byte

	dlMu         sync.Mutex
	sendDeadline time.Time

	once   sync.Once
	closed chan struct{}
}

func (c *faultyConn) SetSendDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.sendDeadline = t
	c.dlMu.Unlock()
	return c.inner.SetSendDeadline(t)
}

// hang blocks until the connection closes or, for a Send, its deadline
// passes.
func (c *faultyConn) hang(send bool) error {
	var d time.Time
	if send {
		c.dlMu.Lock()
		d = c.sendDeadline
		c.dlMu.Unlock()
	}
	var timeout <-chan time.Time
	if !d.IsZero() {
		t := time.NewTimer(time.Until(d))
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-timeout:
		return ErrTimeout
	case <-c.closed:
		return ErrClosed
	}
}

func (c *faultyConn) Send(msg []byte) error {
	switch c.script(c.addr, true, msg) {
	case FaultDrop:
		return nil
	case FaultDuplicate:
		if err := c.inner.Send(msg); err != nil {
			return err
		}
	case FaultHang:
		return c.hang(true)
	case FaultReset:
		c.Close()
		return errReset
	}
	return c.inner.Send(msg)
}

func (c *faultyConn) Recv() ([]byte, error) {
	if msg := c.again; msg != nil {
		c.again = nil
		return msg, nil
	}
	for {
		msg, err := c.inner.Recv()
		if err != nil {
			return nil, err
		}
		switch c.script(c.addr, false, msg) {
		case FaultDrop:
			continue
		case FaultDuplicate:
			// One Recv, one owner: the second delivery is its own bytes.
			c.again = bytes.Clone(msg)
		case FaultHang:
			return nil, c.hang(false)
		case FaultReset:
			c.Close()
			return nil, errReset
		}
		return msg, nil
	}
}

func (c *faultyConn) PeerDN() identity.DN { return c.inner.PeerDN() }
func (c *faultyConn) PeerCertDER() []byte { return c.inner.PeerCertDER() }

func (c *faultyConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.inner.Close()
}
