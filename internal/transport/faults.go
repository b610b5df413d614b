package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"e2eqos/internal/identity"
)

// FaultConfig parameterises the fault-injecting transport wrapper.
// Probabilities are evaluated independently per operation; zero
// disables the corresponding fault.
type FaultConfig struct {
	// DialFailProb refuses a Dial outright.
	DialFailProb float64
	// SendDropProb silently discards an outbound message: Send reports
	// success but nothing is delivered, so the caller only notices at
	// its read deadline.
	SendDropProb float64
	// RecvDropProb discards an inbound message after delivery; the
	// reader keeps waiting for the next one. This models a lost
	// response to a request that *was* processed downstream.
	RecvDropProb float64
	// DelayProb stalls the operation for Delay before proceeding.
	DelayProb float64
	Delay     time.Duration
	// HangProb blocks the operation until the connection is closed or,
	// for a Send, its send deadline expires — a hung peer.
	HangProb float64
	// ResetProb closes the connection mid-operation and returns an
	// error, like a TCP RST.
	ResetProb float64
	// CrashAfter, when positive, resets the connection after that many
	// messages (sends + receives) have crossed it, modelling a peer
	// that dies mid-conversation.
	CrashAfter int64
	// Seed makes the fault sequence deterministic (0 behaves as 1).
	Seed int64
	// Script, when set, picks the fault for each message by looking at
	// it, and the probabilities above apply only to messages it passes:
	// it is how a test hits one particular frame of a pipelined stream.
	// addr is the address the connection was dialled to, send whether the
	// dialling side is sending the message or receiving it. Called
	// concurrently; it must not block.
	Script func(addr string, send bool, msg []byte) FaultAction
}

// FaultAction is a Script's decision for one message.
type FaultAction int

const (
	// FaultPass leaves the message to the probabilistic faults.
	FaultPass FaultAction = iota
	// FaultDrop discards it silently, as SendDropProb / RecvDropProb do.
	FaultDrop
	// FaultDelay stalls it for FaultConfig.Delay. The connection stays
	// in order: whatever follows waits behind it.
	FaultDelay
	// FaultDuplicate delivers it twice, back to back.
	FaultDuplicate
)

// FaultStats counts injected faults, for experiment reporting.
type FaultStats struct {
	DialFails atomic.Int64
	SendDrops atomic.Int64
	RecvDrops atomic.Int64
	Delays    atomic.Int64
	Hangs     atomic.Int64
	Resets    atomic.Int64
	Crashes   atomic.Int64
}

// Total sums all injected faults.
func (s *FaultStats) Total() int64 {
	return s.DialFails.Load() + s.SendDrops.Load() + s.RecvDrops.Load() +
		s.Delays.Load() + s.Hangs.Load() + s.Resets.Load() + s.Crashes.Load()
}

// FaultyDialer wraps a Dialer, injecting configurable faults into the
// connections it opens. Used by the robustness tests and the
// `-exp faults` experiment to subject the signalling chain to per-hop
// failure; the wrapped connections still authenticate normally.
type FaultyDialer struct {
	inner Dialer
	cfg   FaultConfig
	stats FaultStats

	mu  sync.Mutex
	rng *rand.Rand
}

// NewFaultyDialer wraps inner with the given fault profile.
func NewFaultyDialer(inner Dialer, cfg FaultConfig) *FaultyDialer {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultyDialer{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Stats exposes the injected-fault counters.
func (d *FaultyDialer) Stats() *FaultStats { return &d.stats }

func (d *FaultyDialer) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rng.Float64() < p
}

// Dial opens a fault-wrapped connection.
func (d *FaultyDialer) Dial(addr string) (Conn, error) {
	if d.roll(d.cfg.DialFailProb) {
		d.stats.DialFails.Add(1)
		return nil, fmt.Errorf("transport: injected dial failure to %q", addr)
	}
	c, err := d.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &faultyConn{inner: c, d: d, addr: addr, closed: make(chan struct{})}, nil
}

// faultyConn injects faults around an underlying Conn. It tracks the
// send deadline itself so an injected hang still honours
// SetSendDeadline.
type faultyConn struct {
	inner Conn
	d     *FaultyDialer
	addr  string
	msgs  atomic.Int64
	// again holds the second copy of a received message a Script asked
	// to duplicate, for the next Recv (one reader per connection).
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
	c.d.stats.Hangs.Add(1)
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

// crashed trips the crash-after-N counter.
func (c *faultyConn) crashed() bool {
	n := c.d.cfg.CrashAfter
	return n > 0 && c.msgs.Add(1) > n
}

// scripted asks the Script, if any, about one message.
func (c *faultyConn) scripted(send bool, msg []byte) FaultAction {
	if c.d.cfg.Script == nil {
		return FaultPass
	}
	return c.d.cfg.Script(c.addr, send, msg)
}

func (c *faultyConn) Send(msg []byte) error {
	if c.crashed() {
		c.d.stats.Crashes.Add(1)
		c.Close()
		return fmt.Errorf("transport: injected crash after %d messages", c.d.cfg.CrashAfter)
	}
	switch c.scripted(true, msg) {
	case FaultDrop:
		c.d.stats.SendDrops.Add(1)
		return nil
	case FaultDelay:
		c.d.stats.Delays.Add(1)
		time.Sleep(c.d.cfg.Delay)
		return c.inner.Send(msg)
	case FaultDuplicate:
		if err := c.inner.Send(msg); err != nil {
			return err
		}
		return c.inner.Send(msg)
	}
	switch {
	case c.d.roll(c.d.cfg.ResetProb):
		c.d.stats.Resets.Add(1)
		c.Close()
		return fmt.Errorf("transport: injected connection reset")
	case c.d.roll(c.d.cfg.HangProb):
		return c.hang(true)
	case c.d.roll(c.d.cfg.SendDropProb):
		c.d.stats.SendDrops.Add(1)
		return nil
	case c.d.roll(c.d.cfg.DelayProb):
		c.d.stats.Delays.Add(1)
		time.Sleep(c.d.cfg.Delay)
	}
	return c.inner.Send(msg)
}

func (c *faultyConn) Recv() ([]byte, error) {
	if msg := c.again; msg != nil {
		c.again = nil
		return msg, nil
	}
	for {
		if c.crashed() {
			c.d.stats.Crashes.Add(1)
			c.Close()
			return nil, fmt.Errorf("transport: injected crash after %d messages", c.d.cfg.CrashAfter)
		}
		switch {
		case c.d.roll(c.d.cfg.ResetProb):
			c.d.stats.Resets.Add(1)
			c.Close()
			return nil, fmt.Errorf("transport: injected connection reset")
		case c.d.roll(c.d.cfg.HangProb):
			return nil, c.hang(false)
		case c.d.roll(c.d.cfg.DelayProb):
			c.d.stats.Delays.Add(1)
			time.Sleep(c.d.cfg.Delay)
		}
		msg, err := c.inner.Recv()
		if err != nil {
			return nil, err
		}
		switch c.scripted(false, msg) {
		case FaultDrop:
			c.d.stats.RecvDrops.Add(1)
			continue
		case FaultDelay:
			c.d.stats.Delays.Add(1)
			time.Sleep(c.d.cfg.Delay)
			return msg, nil
		case FaultDuplicate:
			// One Recv, one owner: the second delivery is its own bytes.
			c.again = bytes.Clone(msg)
			return msg, nil
		}
		if c.d.roll(c.d.cfg.RecvDropProb) {
			c.d.stats.RecvDrops.Add(1)
			continue
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
