package signalling

import (
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/obs"
	"e2eqos/internal/transport"
	"e2eqos/internal/wire"
)

// Peer describes the authenticated remote side of a connection, as
// established by the channel handshake, and where the request being
// served may be answered.
type Peer struct {
	DN      identity.DN
	CertDER []byte
	// Slot is the served request's reply slot (Reply). The server sets
	// it for every request it serves; nil, Reply builds a new message.
	Slot *ReplySlot
}

// Handler processes one request message and returns the response.
// Implementations must be safe for concurrent use: requests arriving
// on one connection are dispatched concurrently.
//
// msg and its payload, the envelope a reserve's payload decodes into
// included, are valid only until Handle returns: the server decodes a
// later request into the same message, payload and PathPin or Ops
// array (DESIGN.md §6.6, "Who owns a frame"). A handler copies
// whatever it keeps past its return, and the response it returns
// shares nothing with msg but strings. A response built by peer.Reply
// lives in the request's reply slot until the server has sent it: the
// handler returns it and keeps nothing of it.
type Handler interface {
	Handle(peer Peer, msg *Message) *Message
}

// Server accepts connections and dispatches inbound requests to a
// Handler. It tracks its live connections, so Shutdown can tear down
// the listener and every established channel — a daemon's graceful
// stop, and the way a crashed broker looks to its peers.
type Server struct {
	h      Handler
	logger *slog.Logger

	mu    sync.Mutex
	ln    transport.Listener
	conns map[transport.Conn]struct{}
	shut  bool
}

// NewServer builds a server around h. The logger receives protocol
// errors and handler panics; nil falls back to slog.Default, which
// writes through the standard log package.
func NewServer(h Handler, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.Default()
	}
	return &Server{h: h, logger: logger, conns: make(map[transport.Conn]struct{})}
}

// Serve accepts connections from ln until the listener closes or
// Shutdown is called. Each connection gets its own goroutine, and
// requests on a connection are handled concurrently (see serveConn):
// responses are matched to requests by message ID, not by ordering, so
// a slow request never blocks the ones behind it.
func (s *Server) Serve(ln transport.Listener) {
	s.mu.Lock()
	if s.shut {
		s.mu.Unlock()
		ln.Close()
		return
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		go func() {
			serveConn(conn, s.h, s.logger)
			s.untrack(conn)
		}()
	}
}

func (s *Server) track(conn transport.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shut {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn transport.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Shutdown closes the listener and every established connection. Peers
// observe it as a transport failure on their next operation — the test
// harness uses it to model a broker crash, and a later Serve on a fresh
// listener models the restart.
func (s *Server) Shutdown() {
	s.mu.Lock()
	s.shut = true
	ln := s.ln
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// parkedWorkers bounds the request goroutines a connection keeps parked
// between requests. A fresh goroutine starts on a 2 KiB stack and every
// handler of any depth copies it to 4, 8 and 16 KiB on the way down; a
// parked worker keeps the stack it grew, so a connection that carries
// one request after another (a broker's pooled channel to its
// neighbour) pays for the growth once, not per request.
const parkedWorkers = 4

// serveConn reads requests off one connection until it fails. A request
// is handed to a parked worker when one is waiting; otherwise it gets a
// goroutine of its own, which stays on as a worker while fewer than
// parkedWorkers exist and ends with its one request beyond that — so a
// slow request occupies a goroutine, never the reader, and nothing
// queues behind it. Each request is decoded into a message the
// connection keeps (a request, from its free list of at most
// parkedWorkers+1), which goes back on the list once its answer is
// sent: the handler is done with it when Handle returns. Journal-stream
// frames are the exception: they are an ordered stream (each splices
// onto the one before), so the reader handles them itself, in arrival
// order, before it reads the next — each decoded into the one message
// the connection keeps for them. Each served request, and the stream
// messages together, own a reply slot (Peer.Reply), emptied once the
// answer built in it is sent.
func serveConn(conn transport.Conn, h Handler, logger *slog.Logger) {
	defer conn.Close()
	peer := Peer{DN: conn.PeerDN(), CertDER: conn.PeerCertDER()}
	// The free list holds a message for each parked worker and one for
	// the reader to decode into while they all serve.
	free := make(chan *request, parkedWorkers+1)
	// The response is encoded under the request's ID, never stamped with
	// it: handlers may return a shared message (e.g. a recorded outcome
	// replayed to duplicate requests), and two requests must not race on
	// its ID field. The transport's Send is safe for concurrent use on
	// both implementations and the mux client matches responses by ID, so
	// out-of-order completion is fine.
	serve := func(r *request) {
		p := peer
		p.Slot = &r.reply
		sendResponse(conn, safeHandle(h, p, &r.Message, logger), r.ID, peer, logger)
		r.reply.sent()
		r.kept.reset()
		select {
		case free <- r:
		default: // the list is full
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	// Unbuffered: a send succeeds only into a worker parked in receive.
	// Closed (before the wait above) when the reader returns, which is
	// what ends the workers.
	work := make(chan *request)
	defer close(work)
	workers := 0
	var stream Message
	var streamPeer Peer // peer, with the stream messages' reply slot once one has come
	for {
		data, err := conn.Recv()
		if err != nil {
			return
		}
		if len(data) > 2 && data[2] == typeCode(MsgJournalStream) {
			if err := stream.decodeFrame(data, "", nil); err != nil {
				malformed(conn, data, err, peer, logger)
				continue
			}
			if streamPeer.Slot == nil {
				streamPeer = peer
				streamPeer.Slot = new(ReplySlot)
			}
			sendResponse(conn, safeHandle(h, streamPeer, &stream, logger), stream.ID, peer, logger)
			streamPeer.Slot.sent()
			// Drop the references to the frame just served.
			p := stream.JournalStream
			clear(p.Records)
			p.Snapshot = nil
			continue
		}
		var r *request
		select {
		case r = <-free:
		default:
			r = new(request)
		}
		if err := r.decodeFrame(data, "", &r.kept); err != nil {
			malformed(conn, data, err, peer, logger)
			continue
		}
		select {
		case work <- r:
			continue
		default:
		}
		wg.Add(1)
		stay := workers < parkedWorkers
		if stay {
			workers++
		}
		go func() {
			defer wg.Done()
			serve(r)
			for stay {
				r, ok := <-work
				if !ok {
					return
				}
				serve(r)
			}
		}()
	}
}

// request is a served request: the message a connection decodes it
// into, the payloads that message's payload fields point into, and the
// slot its answer may be built in (Peer.Reply).
type request struct {
	Message
	kept  payloads
	reply ReplySlot
}

// malformed answers a frame whose body does not decode. The transport
// is message-oriented, so one undecodable body is never a framing
// desync: it answers an error result (with a best-effort request ID so
// the caller fails fast instead of timing out), and the connection
// keeps serving the other multiplexed calls.
func malformed(conn transport.Conn, data []byte, err error, peer Peer, logger *slog.Logger) {
	logger.Warn("signalling: malformed message body",
		obs.AttrPeer, string(peer.DN), "err", err)
	sendResponse(conn, ErrorResult("malformed request: "+err.Error()), peekID(data), peer, logger)
}

// sendResponse encodes resp under the request's id on a pooled buffer
// and sends it, closing the connection on transport failure.
func sendResponse(conn transport.Conn, resp *Message, id uint64, peer Peer, logger *slog.Logger) {
	bufp := encBufPool.Get().(*[]byte)
	out := resp.appendFrame((*bufp)[:0], id)
	sendErr := conn.Send(out)
	*bufp = out[:0]
	encBufPool.Put(bufp)
	if sendErr != nil {
		conn.Close()
	}
}

// peekID extracts the request ID from a frame whose body failed to
// decode, so the error result reaches the waiting call: the ID sits
// right after the fixed header. Zero (no waiter) when nothing can be
// recovered — the peer's call then times out instead of failing fast,
// which is safe, just slower.
func peekID(data []byte) uint64 {
	if len(data) > 3 && data[0] == BinMagic {
		d := wire.Dec{Buf: data[3:]}
		if id := d.Uvarint(); d.Err() == nil {
			return id
		}
	}
	return 0
}

// safeHandle dispatches one request, converting a handler panic into
// a logged error (with stack trace) and a denied result instead of
// silently killing the connection's goroutine — a poisoned request
// must not take the whole server down, and the operator must see it.
// A handler that returns nothing is answered for the same way.
func safeHandle(h Handler, peer Peer, msg *Message, logger *slog.Logger) (resp *Message) {
	defer func() {
		if r := recover(); r != nil {
			logger.Error("signalling: handler panic",
				obs.AttrPeer, string(peer.DN),
				"type", string(msg.Type),
				"panic", fmt.Sprint(r),
				"stack", string(debug.Stack()))
			resp = ErrorResult("internal: handler panic")
		}
	}()
	if resp = h.Handle(peer, msg); resp == nil {
		resp = ErrorResult("internal: no response")
	}
	return resp
}

// ErrorResult builds a denied/failed result message.
func ErrorResult(reason string) *Message { return newResult(ResultPayload{Reason: reason}) }

// OKResult builds a granted result message.
func OKResult(handle string) *Message {
	return newResult(ResultPayload{Granted: true, Handle: handle})
}

// Client is a multiplexed request/response client over one
// authenticated connection: any number of Calls may be outstanding at
// once, each with its own deadline. A single demux goroutine reads
// responses and routes each to the waiting call by message ID; a
// response whose call already gave up (deadline expiry) finds no
// waiter and is dropped, counted by LateDropped. When the demux loop
// exits — transport error, peer crash, Close — every in-flight and
// future call fails with the terminal error and Alive reports false,
// so a connection owner (the broker's peer pool) can evict and redial.
// Post is the pipelined form: it returns once the request is written
// and the response is handed to a callback on the demux goroutine.
type Client struct {
	conn transport.Conn

	sendMu sync.Mutex // serializes Send and send-deadline handling

	mu      sync.Mutex
	nextID  uint64
	waiters map[uint64]waiter
	err     error // terminal fault, set once when the client dies
	closing bool  // CloseWhenIdle called: refuse new calls, close at drain
	// timer bounds every timed call with one timer: it is armed at the
	// earliest waiting deadline (timerAt, zero while disarmed) and runs
	// sweep, which answers the calls whose deadline has passed and arms
	// it again at the next one.
	timer   *time.Timer
	timerAt time.Time

	failOnce sync.Once     // makes fail idempotent: demux exit and send faults race
	done     chan struct{} // closed when the client dies

	late atomic.Int64 // responses dropped because their waiter was gone
}

// waiter is what a request left behind for its response: the channel a
// Call blocks on and its deadline (zero: none), or a Post's callback and
// the time it was sent. Whoever deletes a call's waiter from the map,
// under c.mu, sends it the one value its channel will ever carry: the
// demux the answer, sweep expiredCall, fail deadCall. So a call that
// receives is done with its channel, and a reply that races its
// deadline is either returned or counted late, never lost.
type waiter struct {
	ch       chan *Message
	deadline time.Time
	fn       func(*Message)
	at       time.Time
}

// expiredCall and deadCall are what sweep and fail deliver in place of
// an answer.
var expiredCall, deadCall = new(Message), new(Message)

// callChans recycles the calls' answer channels (see waiter).
var callChans = sync.Pool{New: func() any { return make(chan *Message, 1) }}

// NewClient wraps an established connection and starts its demux
// goroutine.
func NewClient(conn transport.Conn) *Client {
	c := &Client{
		conn:    conn,
		waiters: make(map[uint64]waiter),
		done:    make(chan struct{}),
	}
	c.timer = time.AfterFunc(time.Hour, c.sweep)
	c.timer.Stop()
	go c.demux()
	return c
}

// Dial connects to addr with the dialer and wraps the connection.
func Dial(d transport.Dialer, addr string) (*Client, error) {
	conn, err := d.Dial(addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// PeerDN reports the authenticated remote identity.
func (c *Client) PeerDN() identity.DN { return c.conn.PeerDN() }

// PeerCertDER reports the remote certificate.
func (c *Client) PeerCertDER() []byte { return c.conn.PeerCertDER() }

// Alive reports whether the demux loop is still running, i.e. the
// connection has not hit a terminal fault. A false return means every
// call will fail until the owner redials.
func (c *Client) Alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// Err returns the terminal fault that stopped the demux loop (nil
// while the client is alive).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// LateDropped counts responses that arrived after their call had
// already given up — the demux analogue of the old stale-response
// skip, now an accounting detail instead of a failure mode.
func (c *Client) LateDropped() int64 { return c.late.Load() }

// OldestPost reports when the oldest Post still awaiting its response
// was sent (false when none is). A pipelined sender has no per-request
// timer; its owner polls this and closes a client whose oldest post
// has waited longer than a call may.
func (c *Client) OldestPost() (at time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.waiters {
		if w.fn != nil && (!ok || w.at.Before(at)) {
			at, ok = w.at, true
		}
	}
	return at, ok
}

// demux is the reader loop: it routes each inbound response to the
// call that registered its ID (running a Post's callback right here)
// and drops (counting) responses whose caller already gave up. Any
// receive or decode failure is terminal —
// the framing may be desynchronized — so the loop records the fault,
// wakes every waiter, and exits. Every response is decoded into one
// message the loop keeps: a Post's callback is done with it when it
// returns, and a Call gets a copy of its own, from the answers' pool.
func (c *Client) demux() {
	var resp Message
	for {
		raw, err := c.conn.Recv()
		if err != nil {
			c.fail(fmt.Errorf("signalling: recv from %s: %w", c.conn.PeerDN(), err))
			return
		}
		if err := resp.decodeFrame(raw, "", nil); err != nil {
			c.fail(fmt.Errorf("signalling: undecodable response from %s: %w", c.conn.PeerDN(), err))
			return
		}
		c.mu.Lock()
		w, ok := c.waiters[resp.ID]
		if ok {
			delete(c.waiters, resp.ID)
		}
		drained := c.closing && len(c.waiters) == 0
		c.mu.Unlock()
		switch {
		case !ok:
			c.late.Add(1)
		case w.fn != nil:
			w.fn(&resp)
		default:
			// The call gets its answer: a result is copied out into a
			// message from the pool its caller may give it back to
			// (Release), and the loop decodes into its payload again;
			// anything else is handed over whole.
			var m *Message
			if resp.Result != nil {
				m = answer(resp.ID, resp.Result)
			} else {
				m = new(Message)
				*m, resp = resp, Message{}
			}
			w.ch <- m // this loop deleted the waiter: the one send
		}
		if drained {
			// Last in-flight call settled after CloseWhenIdle: the next
			// Recv fails and the loop exits through fail.
			c.conn.Close()
		}
	}
}

// fail records the terminal error, wakes every in-flight call, and
// marks the client dead. Idempotent: the demux loop calls it when Recv
// fails, and a send fault calls it directly so Alive flips false
// before the demux loop ever notices the closed connection. Posts still
// waiting get nil on a goroutine of their own, never on this stack: a
// sender may reach here from inside Post, holding whatever lock its
// callback takes. The deadline timer is stopped: armed, it would pin
// the dead client and its connection until it fired.
func (c *Client) fail(err error) {
	c.failOnce.Do(func() {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		var posted []func(*Message)
		for _, w := range c.waiters {
			if w.fn != nil {
				posted = append(posted, w.fn)
			} else {
				w.ch <- deadCall // its one send: never blocks
			}
		}
		c.waiters = make(map[uint64]waiter)
		c.timer.Stop()
		c.timerAt = time.Time{}
		c.mu.Unlock()
		close(c.done) // Alive observes the death through done
		c.conn.Close()
		if len(posted) > 0 {
			go func() {
				for _, fn := range posted {
					fn(nil)
				}
			}()
		}
	})
}

// Call sends msg and blocks for the matching response, or for at most
// timeout (0 = wait forever). The caller's message is never mutated, so
// one message value may safely be shared across clients and retries.
// A deadline expiry surfaces as an error matched by
// transport.IsTimeout; unlike the pre-mux client the connection
// itself stays usable — other in-flight calls are unaffected, and the
// late response (if it ever arrives) is dropped and counted. The
// request may still be processed remotely, so callers owning remote
// state should clean it up separately.
//
// The deadline runs from the call's registration, and the client's one
// timer enforces it (sweep): a call owns no timer, and its channel is
// the pool's again once it has received its one value.
//
// A result answer comes from a pool: a caller that only reads it gives
// it back with Release once it has copied out what it keeps, and one
// that keeps it does nothing.
func (c *Client) Call(msg *Message, timeout time.Duration) (*Message, error) {
	w := waiter{ch: callChans.Get().(chan *Message)}
	if timeout > 0 {
		w.deadline = time.Now().Add(timeout)
	}
	id, err := c.request(msg, w, timeout)
	if err != nil {
		// Not pooled: a fail that raced the send may have answered it.
		return nil, err
	}
	resp := <-w.ch
	callChans.Put(w.ch)
	switch resp {
	case expiredCall:
		return nil, fmt.Errorf("signalling: call %d to %s: %w", id, c.conn.PeerDN(), transport.ErrTimeout)
	case deadCall:
		return nil, c.Err()
	}
	return resp, nil
}

// sweep runs on the client's timer: it answers every call whose
// deadline has passed and arms the timer at the earliest deadline left.
// It reads every deadline afresh under c.mu, so a run the timer makes
// when nothing is due (a Reset racing a firing) only re-arms.
func (c *Client) sweep() {
	now := time.Now()
	c.mu.Lock()
	c.timerAt = time.Time{}
	var next time.Time
	for id, w := range c.waiters {
		switch {
		case w.deadline.IsZero():
		case !now.Before(w.deadline):
			delete(c.waiters, id)
			w.ch <- expiredCall // its one send: never blocks
		case next.IsZero() || w.deadline.Before(next):
			next = w.deadline
		}
	}
	if !next.IsZero() {
		c.armLocked(next, now)
	}
	drained := c.closing && len(c.waiters) == 0
	c.mu.Unlock()
	if drained {
		c.conn.Close()
	}
}

// armLocked moves the timer to deadline if that is earlier than where
// it is armed. Caller holds c.mu. A closed-loop caller's deadlines only
// grow, so its calls never move the timer: it fires once per timeout,
// and sweep re-arms it for whoever is waiting then.
func (c *Client) armLocked(deadline, now time.Time) {
	if c.timerAt.IsZero() || deadline.Before(c.timerAt) {
		c.timerAt = deadline
		c.timer.Reset(deadline.Sub(now))
	}
}

// Post sends msg and returns as soon as it is written, bounded by
// timeout like a call's send. When Post returns nil, fn runs exactly
// once: with the matching response on the demux goroutine — so it must
// not block, and responses reach it in the order the peer sent them —
// or with nil, on a goroutine of its own, if the client dies first. It
// never runs on the caller's stack, and not at all when Post returns an
// error. Nothing times a posted request out: see OldestPost.
//
// The response is valid only while fn runs: the demux goroutine decodes
// the next response into the same message. fn copies what it keeps.
func (c *Client) Post(msg *Message, timeout time.Duration, fn func(*Message)) error {
	_, err := c.request(msg, waiter{fn: fn, at: time.Now()}, timeout)
	return err
}

// request registers w under a fresh message ID and sends msg under it.
func (c *Client) request(msg *Message, w waiter, timeout time.Duration) (uint64, error) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, err
	}
	if c.closing {
		c.mu.Unlock()
		return 0, fmt.Errorf("signalling: client to %s is draining", c.conn.PeerDN())
	}
	c.nextID++
	id := c.nextID
	c.waiters[id] = w
	if !w.deadline.IsZero() {
		c.armLocked(w.deadline, time.Now())
	}
	c.mu.Unlock()

	// Encoded under this call's ID without touching msg: the caller may
	// reuse it across clients or retries, and a shared mutation would
	// corrupt the request/response matching of concurrent calls.
	bufp := encBufPool.Get().(*[]byte)
	data := msg.appendFrame((*bufp)[:0], id)
	err := c.send(data, id, timeout)
	*bufp = data[:0]
	encBufPool.Put(bufp)
	if err != nil {
		return 0, fmt.Errorf("signalling: send to %s: %w", c.conn.PeerDN(), err)
	}
	return id, nil
}

// send transmits one frame under the send mutex, bounding the write
// with a send-only deadline so a concurrent demux Recv is unaffected.
// Any send failure is terminal for the whole client: a deadline expiry
// (or any partial write on a stream transport) may leave a truncated
// frame on the wire, and the next write would land mid-frame. Marking
// the client dead here makes Alive report false immediately, so the
// peer pool evicts and redials instead of writing onto a corrupt
// stream. The failed request's own waiter is withdrawn first: its
// caller gets the error, so fail must not answer it a second time.
func (c *Client) send(data []byte, id uint64, timeout time.Duration) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if timeout > 0 {
		if err := c.conn.SetSendDeadline(time.Now().Add(timeout)); err != nil {
			c.unregister(id)
			c.fail(fmt.Errorf("signalling: send deadline on %s: %w", c.conn.PeerDN(), err))
			return err
		}
		defer c.conn.SetSendDeadline(time.Time{})
	}
	if err := c.conn.Send(data); err != nil {
		c.unregister(id)
		c.fail(fmt.Errorf("signalling: send to %s: %w", c.conn.PeerDN(), err))
		return err
	}
	return nil
}

// unregister withdraws the waiter of a request that could not be sent,
// and completes a pending CloseWhenIdle if it was the last one.
func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.waiters, id)
	drained := c.closing && len(c.waiters) == 0
	c.mu.Unlock()
	if drained {
		c.conn.Close()
	}
}

// CloseWhenIdle refuses new calls and closes the connection as soon as
// every in-flight call has settled. The broker's pool uses it to evict
// a suspect connection without killing the healthy calls still
// multiplexed on it; a hard Close remains available for shutdown.
func (c *Client) CloseWhenIdle() {
	c.mu.Lock()
	c.closing = true
	drained := len(c.waiters) == 0
	c.mu.Unlock()
	if drained {
		c.conn.Close()
	}
}

// Close tears the connection down immediately; in-flight calls fail.
func (c *Client) Close() error { return c.conn.Close() }
