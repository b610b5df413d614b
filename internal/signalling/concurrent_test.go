package signalling

import (
	"fmt"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/transport"
)

// echoServe starts a handler that echoes the request's RARID back as
// the result handle, optionally delayed by the per-request delay func.
func echoServe(t *testing.T, ln transport.Listener, delay func(rarid string) time.Duration) {
	t.Helper()
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		if delay != nil {
			if d := delay(msg.Status.RARID); d > 0 {
				time.Sleep(d)
			}
		}
		return OKResult(msg.Status.RARID)
	}), nil).Serve(ln)
}

func dialPair(t *testing.T, latency time.Duration) (*Client, transport.Listener) {
	t.Helper()
	net := transport.NewNetwork(latency)
	server := net.NewEndpoint("/CN=server", nil)
	client := net.NewEndpoint("/CN=client", nil)
	ln, err := server.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	c, err := Dial(client, "srv")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, ln
}

// TestConcurrentCallsInterleaved drives many parallel calls through one
// client while the server completes them in effectively random order
// (later requests finish sooner). Every call must receive exactly its
// own response — the whole point of ID-keyed demultiplexing.
func TestConcurrentCallsInterleaved(t *testing.T) {
	c, ln := dialPair(t, 0)
	// Invert completion order: request i sleeps (N-i) units, so the
	// last request's response comes back first.
	const calls = 32
	echoServe(t, ln, func(rarid string) time.Duration {
		i, _ := strconv.Atoi(rarid)
		return time.Duration(calls-i) * time.Millisecond
	})

	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := strconv.Itoa(i)
			resp, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: id}}, 0)
			if err != nil {
				errs <- err
				return
			}
			if resp.Result.Handle != id {
				errs <- fmt.Errorf("call %s got response for %q", id, resp.Result.Handle)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := c.LateDropped(); n != 0 {
		t.Errorf("dropped %d responses on a healthy exchange", n)
	}
	if n := pending(c); n != 0 {
		t.Errorf("%d waiters leaked after all calls returned", n)
	}
}

// TestConcurrentTimeoutIsolation stalls one request far past its
// deadline while its siblings answer promptly: the stalled call must
// expire alone, with no collateral failure or connection teardown.
func TestConcurrentTimeoutIsolation(t *testing.T) {
	c, ln := dialPair(t, 0)
	echoServe(t, ln, func(rarid string) time.Duration {
		if rarid == "stall" {
			return 2 * time.Second
		}
		return 0
	})

	var wg sync.WaitGroup
	stallErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "stall"}}, 50*time.Millisecond)
		stallErr <- err
	}()
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := strconv.Itoa(i)
			resp, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: id}}, time.Second)
			if err != nil {
				errs <- fmt.Errorf("healthy call %s: %w", id, err)
				return
			}
			if resp.Result.Handle != id {
				errs <- fmt.Errorf("call %s got response for %q", id, resp.Result.Handle)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	err := <-stallErr
	if err == nil {
		t.Fatal("stalled call did not time out")
	}
	if !transport.IsTimeout(err) {
		t.Fatalf("stalled call failed with %v, want timeout", err)
	}
	if !c.Alive() {
		t.Fatalf("one timed-out call killed the connection: %v", c.Err())
	}
	// The connection must still carry new calls after the expiry.
	resp, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "after"}}, time.Second)
	if err != nil || resp.Result.Handle != "after" {
		t.Fatalf("call after timeout: resp=%v err=%v", resp, err)
	}
}

// TestConcurrentCloseInFlight closes the client while calls are
// blocked on a silent server: every call must fail promptly with the
// terminal error instead of hanging until its own deadline.
func TestConcurrentCloseInFlight(t *testing.T) {
	c, ln := dialPair(t, 0)
	silentServer(t, ln)

	const calls = 8
	var wg sync.WaitGroup
	var failed atomic.Int64
	started := make(chan struct{}, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			_, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: strconv.Itoa(i)}}, 10*time.Second)
			if err != nil {
				failed.Add(1)
			}
		}(i)
	}
	for i := 0; i < calls; i++ {
		<-started
	}
	time.Sleep(20 * time.Millisecond) // let the calls reach their select
	c.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight calls hung after Close")
	}
	if n := failed.Load(); n != calls {
		t.Errorf("%d of %d in-flight calls failed after Close", n, calls)
	}
	if c.Alive() {
		t.Error("client still reports alive after Close")
	}
	if _, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "post"}}, 0); err == nil {
		t.Error("call on closed client succeeded")
	}
}

// TestConcurrentLateResponseDropped lets a call expire just before its
// response lands: the demux loop must drop the orphaned response,
// count it, and leave the connection fully usable.
func TestConcurrentLateResponseDropped(t *testing.T) {
	c, ln := dialPair(t, 0)
	echoServe(t, ln, func(rarid string) time.Duration {
		if rarid == "slow" {
			return 150 * time.Millisecond
		}
		return 0
	})

	_, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "slow"}}, 30*time.Millisecond)
	if !transport.IsTimeout(err) {
		t.Fatalf("slow call: err=%v, want timeout", err)
	}
	// Wait for the orphaned response to arrive and be discarded.
	deadline := time.Now().Add(2 * time.Second)
	for c.LateDropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("late response never counted as dropped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !c.Alive() {
		t.Fatalf("late response killed the connection: %v", c.Err())
	}
	resp, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "next"}}, time.Second)
	if err != nil || resp.Result.Handle != "next" {
		t.Fatalf("call after late drop: resp=%v err=%v", resp, err)
	}
	if n := c.LateDropped(); n != 1 {
		t.Errorf("LateDropped = %d, want 1", n)
	}
}

// TestConcurrentCloseWhenIdleDrains verifies drain-close: after
// CloseWhenIdle new calls are refused, but calls already in flight
// complete normally, and the connection closes once they settle.
func TestConcurrentCloseWhenIdleDrains(t *testing.T) {
	c, ln := dialPair(t, 0)
	echoServe(t, ln, func(rarid string) time.Duration { return 80 * time.Millisecond })

	respC := make(chan *Message, 1)
	errC := make(chan error, 1)
	go func() {
		resp, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "inflight"}}, time.Second)
		respC <- resp
		errC <- err
	}()
	// Wait until the call is registered before draining.
	deadline := time.Now().Add(time.Second)
	for pending(c) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight call never registered")
		}
		time.Sleep(time.Millisecond)
	}
	c.CloseWhenIdle()

	if _, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "refused"}}, 0); err == nil {
		t.Fatal("call accepted after CloseWhenIdle")
	}
	resp, err := <-respC, <-errC
	if err != nil {
		t.Fatalf("in-flight call failed during drain: %v", err)
	}
	if resp.Result.Handle != "inflight" {
		t.Fatalf("in-flight call got response for %q", resp.Result.Handle)
	}
	// With the last waiter drained the connection must actually close.
	deadline = time.Now().Add(2 * time.Second)
	for c.Alive() {
		if time.Now().After(deadline) {
			t.Fatal("connection stayed open after drain completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentServerShutdown kills a server with established
// connections: clients observe the death promptly, and a fresh server
// can re-listen on the same address afterwards.
func TestConcurrentServerShutdown(t *testing.T) {
	net := transport.NewNetwork(0)
	server := net.NewEndpoint("/CN=server", nil)
	client := net.NewEndpoint("/CN=client", nil)
	ln, err := server.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		return OKResult(msg.Status.RARID)
	}), nil)
	go srv.Serve(ln)

	c, err := Dial(client, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "pre"}}, time.Second); err != nil {
		t.Fatalf("call before shutdown: %v", err)
	}

	srv.Shutdown()
	if _, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "during"}}, time.Second); err == nil {
		t.Fatal("call succeeded against a shut-down server")
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Alive() {
		if time.Now().After(deadline) {
			t.Fatal("client never observed the server shutdown")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The address must be reusable — this is what a broker restart
	// looks like to the rest of the testbed.
	ln2, err := server.Listen("srv")
	if err != nil {
		t.Fatalf("re-listen after shutdown: %v", err)
	}
	defer ln2.Close()
	srv2 := NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		return OKResult(msg.Status.RARID)
	}), nil)
	go srv2.Serve(ln2)
	defer srv2.Shutdown()

	c2, err := Dial(client, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resp, err := c2.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "post"}}, time.Second)
	if err != nil || resp.Result.Handle != "post" {
		t.Fatalf("call after restart: resp=%v err=%v", resp, err)
	}
}

// TestCallsShareOneTimer: a client bounds every timed call with one
// timer, armed at the earliest waiting deadline (Client.sweep). 64
// concurrent calls with 64 different deadlines, none of them answered
// in time, each time out at its own deadline — not at an earlier
// call's, and not much later — with the error text and type a call has
// always had. The connection then serves a new call, and the answers
// the stalled requests finally get are each counted late.
func TestCallsShareOneTimer(t *testing.T) {
	c, ln := dialPair(t, 0)
	release := make(chan struct{})
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		if msg.Status.RARID != "after" {
			<-release
		}
		return OKResult(msg.Status.RARID)
	}), nil).Serve(ln)

	const calls = 64
	timeout := func(i int) time.Duration { return 50*time.Millisecond + time.Duration(i)*5*time.Millisecond }
	errs := make([]error, calls)
	took := make([]time.Duration, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			_, errs[i] = c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: strconv.Itoa(i)}}, timeout(i))
			took[i] = time.Since(t0)
		}()
	}
	wg.Wait()
	text := regexp.MustCompile(`^signalling: call [0-9]+ to /CN=server: transport: deadline exceeded$`)
	for i, err := range errs {
		if !transport.IsTimeout(err) || !text.MatchString(err.Error()) {
			t.Errorf("call %d: err = %v, want a timeout reading %q", i, err, text)
		}
		if took[i] < timeout(i) || took[i] > timeout(i)+time.Second {
			t.Errorf("call %d gave up after %v, want its own %v", i, took[i], timeout(i))
		}
	}
	if n := pending(c); n != 0 {
		t.Errorf("%d waiters left after every call timed out", n)
	}
	resp, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "after"}}, time.Second)
	if err != nil || resp.Result.Handle != "after" {
		t.Fatalf("call after the timeouts: resp=%v err=%v", resp, err)
	}
	close(release)
	for deadline := time.Now().Add(5 * time.Second); c.LateDropped() != calls; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("LateDropped = %d, want every stalled answer (%d)", c.LateDropped(), calls)
		}
	}
}

// TestDeadClientKeepsNoTimer: a client that dies with a timed call
// outstanding stops its timer. An armed timer would keep the dead
// client, its connection and whatever holds them reachable until it
// fired — an hour, here.
func TestDeadClientKeepsNoTimer(t *testing.T) {
	c, ln := dialPair(t, 0)
	silentServer(t, ln)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "r"}}, time.Hour)
		errc <- err
	}()
	for deadline := time.Now().Add(2 * time.Second); pending(c) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the call never registered")
		}
	}
	c.mu.Lock()
	armed := !c.timerAt.IsZero()
	c.mu.Unlock()
	if !armed {
		t.Fatal("a client waiting on a timed call has no timer armed")
	}
	c.Close()
	if err := <-errc; err == nil || transport.IsTimeout(err) {
		t.Fatalf("the call on a dead client returned %v, want the client's terminal error", err)
	}
	if c.timer.Stop() {
		t.Error("the dead client's timer was still armed")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.timerAt.IsZero() {
		t.Errorf("the dead client still records a deadline at %v", c.timerAt)
	}
}

// TestAnswerRacingDeadlineIsDeliveredOrCounted: many calls against a
// server that answers each one right around its deadline. An answer
// either reaches its call or, if the call has already timed out, is
// counted by LateDropped — whoever takes a waiter out of the client's
// table delivers to it. Once every answer has arrived, answers
// delivered plus LateDropped equals answers sent.
func TestAnswerRacingDeadlineIsDeliveredOrCounted(t *testing.T) {
	c, ln := dialPair(t, 0)
	const timeout = 2 * time.Millisecond
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		i, _ := strconv.Atoi(msg.Status.RARID)
		time.Sleep(timeout + time.Duration(i%11-5)*100*time.Microsecond)
		return OKResult(msg.Status.RARID)
	}), nil).Serve(ln)

	const goroutines, each = 16, 40
	var delivered, timedOut atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := strconv.Itoa(g*each + i)
				resp, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: id}}, timeout)
				switch {
				case err == nil && resp.Result.Handle == id:
					delivered.Add(1)
				case transport.IsTimeout(err):
					timedOut.Add(1)
				default:
					t.Errorf("call %s: resp=%v err=%v", id, resp, err)
				}
			}
		}()
	}
	wg.Wait()
	const sent = goroutines * each
	for deadline := time.Now().Add(5 * time.Second); delivered.Load()+c.LateDropped() != sent; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d answers delivered + %d counted late = %d, want every answer sent (%d): %d calls timed out",
				delivered.Load(), c.LateDropped(), delivered.Load()+c.LateDropped(), sent, timedOut.Load())
		}
	}
	t.Logf("%d delivered, %d timed out and counted late", delivered.Load(), c.LateDropped())
}
