package signalling

import (
	"sync"
	"testing"
	"time"

	"e2eqos/internal/transport"
)

// silentHandler never responds: Serve's handler must return something,
// so the server side is driven manually to swallow requests.
func silentServer(t *testing.T, ln transport.Listener) {
	t.Helper()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					if _, err := conn.Recv(); err != nil {
						return
					}
				}
			}()
		}
	}()
}

func TestCallTimeoutOnSilentPeer(t *testing.T) {
	net := transport.NewNetwork(0)
	server := net.NewEndpoint("/CN=server", nil)
	client := net.NewEndpoint("/CN=client", nil)
	ln, err := server.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	silentServer(t, ln)

	c, err := Dial(client, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "r"}}, 60*time.Millisecond)
	if err == nil {
		t.Fatal("call to silent peer succeeded")
	}
	if !transport.IsTimeout(err) {
		t.Fatalf("error %v is not a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timed out after %v, want ~60ms", elapsed)
	}
}

func TestCallDoesNotMutateCallerMessage(t *testing.T) {
	net := transport.NewNetwork(0)
	server := net.NewEndpoint("/CN=server", nil)
	client := net.NewEndpoint("/CN=client", nil)
	ln, err := server.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		return OKResult(msg.Status.RARID)
	}), nil).Serve(ln)

	// One message value shared across two clients and repeated calls:
	// its ID must stay untouched or concurrent matching corrupts.
	shared := &Message{Type: MsgStatus, Status: &StatusPayload{RARID: "shared"}}
	c1, err := Dial(client, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(client, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 20; i++ {
		for _, c := range []*Client{c1, c2} {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				resp, err := c.Call(shared, 0)
				if err != nil {
					errs <- err
					return
				}
				if !resp.Result.Granted || resp.Result.Handle != "shared" {
					errs <- err
				}
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if shared.ID != 0 {
		t.Errorf("caller's message mutated: ID = %d, want 0", shared.ID)
	}
}

func TestCallDropsMismatchedIDs(t *testing.T) {
	net := transport.NewNetwork(0)
	server := net.NewEndpoint("/CN=server", nil)
	client := net.NewEndpoint("/CN=client", nil)
	ln, err := server.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// A misbehaving peer floods responses that never match the request
	// ID. The demux loop must drop and count them — never deliver one
	// to the waiting call — and the call fails by its own deadline.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if _, err := conn.Recv(); err != nil {
			return
		}
		bogus := OKResult("bogus")
		bogus.ID = 999_999
		data, _ := bogus.Encode()
		for {
			if err := conn.Send(data); err != nil {
				return
			}
		}
	}()

	c, err := Dial(client, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "r"}}, 100*time.Millisecond)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call against id-flooding peer succeeded")
		}
		if !transport.IsTimeout(err) {
			t.Errorf("error = %v, want deadline expiry", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call spun on mismatched responses instead of bailing")
	}
	if c.LateDropped() == 0 {
		t.Error("no mismatched responses counted as dropped")
	}
	if !c.Alive() {
		t.Errorf("connection died on mismatched IDs: %v", c.Err())
	}
}
