package signalling

import (
	"sync"
	"testing"
	"time"

	"e2eqos/internal/transport"
)

// TestPostDeliversResponse: a posted request returns at once and its
// response reaches the callback — on the demux goroutine, so two
// responses never run their callbacks at the same time — and the waiter
// is gone afterwards.
func TestPostDeliversResponse(t *testing.T) {
	c, ln := dialPair(t, 0)
	echoServe(t, ln, nil)
	const posts = 50
	got := make(chan string, posts)
	var inCallback sync.Mutex
	for i := 0; i < posts; i++ {
		err := c.Post(statusMsg("p"), time.Second, func(resp *Message) {
			if !inCallback.TryLock() {
				t.Error("two callbacks running at once")
				return
			}
			defer inCallback.Unlock()
			got <- resp.Result.Handle
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < posts; i++ {
		select {
		case h := <-got:
			if h != "p" {
				t.Fatalf("callback got handle %q", h)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d callbacks ran", i, posts)
		}
	}
	if n := pending(c); n != 0 {
		t.Errorf("%d waiters left after every post was answered", n)
	}
	if _, ok := c.OldestPost(); ok {
		t.Error("OldestPost reports a post with none outstanding")
	}
}

// TestPostNilOnClientDeath: a post still unanswered when the client dies
// gets nil, exactly once, and a post on the dead client is refused
// without its callback ever running.
func TestPostNilOnClientDeath(t *testing.T) {
	c, ln := dialPair(t, 0)
	block := make(chan struct{})
	defer close(block)
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		<-block
		return OKResult("late")
	}), nil).Serve(ln)
	got := make(chan *Message, 4)
	for i := 0; i < 2; i++ {
		if err := c.Post(statusMsg("p"), time.Second, func(resp *Message) { got <- resp }); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	for i := 0; i < 2; i++ {
		select {
		case resp := <-got:
			if resp != nil {
				t.Fatalf("callback got %+v from a dead client, want nil", resp)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("callback never ran after the client died")
		}
	}
	if err := c.Post(statusMsg("p"), time.Second, func(*Message) { t.Error("callback ran for a refused post") }); err == nil {
		t.Fatal("post on a dead client succeeded")
	}
	select {
	case resp := <-got:
		t.Fatalf("a callback ran twice: %+v", resp)
	case <-time.After(50 * time.Millisecond):
	}
}

// closedOnSend is a connection whose peer vanishes between two sends:
// the first goes through and is never answered, the second fails.
type closedOnSend struct {
	transport.Conn
	mu    sync.Mutex
	sends int
}

func (c *closedOnSend) Send(msg []byte) error {
	c.mu.Lock()
	c.sends++
	n := c.sends
	c.mu.Unlock()
	if n > 1 {
		return transport.ErrClosed
	}
	return c.Conn.Send(msg)
}

// TestPostSendFailureUnderHeldLock is the shutdown deadlock: the sender
// holds a lock its callbacks take, and the send fails. The client dies
// inside Post, with an earlier post still waiting; its callback must
// run on a goroutine of its own, not on the sender's stack, or the
// sender deadlocks against itself. The failed post reports its error
// and its own callback never runs.
func TestPostSendFailureUnderHeldLock(t *testing.T) {
	net := transport.NewNetwork(0)
	ln, err := net.NewEndpoint("/CN=server", nil).Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	block := make(chan struct{})
	defer close(block)
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message { <-block; return OKResult("") }), nil).Serve(ln)
	conn, err := net.NewEndpoint("/CN=client", nil).Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(&closedOnSend{Conn: conn})
	defer c.Close()

	var streamMu sync.Mutex // what a stream writer holds while it posts
	first := make(chan *Message, 1)
	ack := func(ch chan *Message) func(*Message) {
		return func(resp *Message) {
			streamMu.Lock()
			defer streamMu.Unlock()
			ch <- resp
		}
	}
	returned := make(chan error, 1)
	go func() {
		streamMu.Lock()
		defer streamMu.Unlock()
		if err := c.Post(statusMsg("1"), time.Second, ack(first)); err != nil {
			returned <- err
			return
		}
		failed := make(chan *Message, 1)
		err := c.Post(statusMsg("2"), time.Second, ack(failed))
		select {
		case <-failed:
			t.Error("the failed post's own callback ran")
		default:
		}
		returned <- err
	}()
	select {
	case err := <-returned:
		if err == nil {
			t.Fatal("post into a closed connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Post never returned: a callback ran on the sender's stack under the sender's lock")
	}
	select {
	case resp := <-first:
		if resp != nil {
			t.Fatalf("pending post got %+v, want nil", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending post's callback never ran once the lock was free")
	}
	if c.Alive() {
		t.Error("client still alive after a failed send")
	}
}

// TestPostUnansweredPastTimeout: nothing times a posted request out by
// itself; OldestPost is how its owner learns that the oldest one has
// waited longer than a call would, and closing the client then ends
// every post on it the way a timed-out CallTimeout ends a stream today
// — while an ordinary call on the same connection times out alone.
func TestPostUnansweredPastTimeout(t *testing.T) {
	c, ln := dialPair(t, 0)
	block := make(chan struct{})
	defer close(block)
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message { <-block; return OKResult("") }), nil).Serve(ln)
	const timeout = 40 * time.Millisecond
	got := make(chan *Message, 2)
	start := time.Now()
	if err := c.Post(statusMsg("old"), timeout, func(resp *Message) { got <- resp }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call(statusMsg("call"), timeout); !transport.IsTimeout(err) {
		t.Fatalf("call err = %v, want a timeout", err)
	}
	if !c.Alive() {
		t.Fatal("a timed-out call killed the client")
	}
	if err := c.Post(statusMsg("young"), timeout, func(resp *Message) { got <- resp }); err != nil {
		t.Fatal(err)
	}
	at, ok := c.OldestPost()
	if !ok || at.Before(start) || time.Since(at) < timeout {
		t.Fatalf("OldestPost = %v, %t; want the first post's send time, at least %v ago", at, ok, timeout)
	}
	select {
	case resp := <-got:
		t.Fatalf("an unanswered post was completed by something: %+v", resp)
	default:
	}
	c.Close() // what the stream's owner does on seeing it overdue
	for i := 0; i < 2; i++ {
		select {
		case resp := <-got:
			if resp != nil {
				t.Fatalf("post got %+v after the close, want nil", resp)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a post outlived its client")
		}
	}
}
