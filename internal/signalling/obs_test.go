package signalling

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"e2eqos/internal/transport"
)

// logBuffer is a concurrency-safe sink for the server logger: the
// serve goroutine writes records while the test reads them.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeReportsHandlerPanic: a panicking handler must not kill the
// connection or vanish silently — the caller gets a denied result and
// the log carries the panic with a stack trace.
func TestServeReportsHandlerPanic(t *testing.T) {
	net := transport.NewNetwork(0)
	server := net.NewEndpoint("/CN=server", nil)
	client := net.NewEndpoint("/CN=client", nil)
	ln, err := server.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sink := &logBuffer{}
	logger := slog.New(slog.NewTextHandler(sink, nil))
	go NewServer(HandlerFunc(func(peer Peer, msg *Message) *Message {
		if msg.Status != nil && msg.Status.RARID == "boom" {
			panic("poisoned request")
		}
		return OKResult("ok")
	}), logger).Serve(ln)

	c, err := Dial(client, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "boom"}}, 0)
	if err != nil {
		t.Fatalf("panic killed the connection: %v", err)
	}
	if resp.Result == nil || resp.Result.Granted {
		t.Fatalf("want a denied result, got %+v", resp.Result)
	}
	if !strings.Contains(resp.Result.Reason, "handler panic") {
		t.Errorf("reason %q does not mention the panic", resp.Result.Reason)
	}
	// The connection survives: a following healthy request still works.
	resp, err = c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "fine"}}, 0)
	if err != nil || resp.Result == nil || !resp.Result.Granted {
		t.Fatalf("connection unusable after a recovered panic: %v %+v", err, resp)
	}
	out := sink.String()
	if !strings.Contains(out, "poisoned request") {
		t.Errorf("log does not carry the panic value:\n%s", out)
	}
	if !strings.Contains(out, "stack=") {
		t.Errorf("log does not carry a stack trace:\n%s", out)
	}
	if !strings.Contains(out, "/CN=client") {
		t.Errorf("log does not identify the peer:\n%s", out)
	}
}

// TestServeLogsMalformedMessage: garbage on the wire is answered with
// an error result and a warning naming the peer — the connection (and
// every other call multiplexed on it) survives.
func TestServeLogsMalformedMessage(t *testing.T) {
	net := transport.NewNetwork(0)
	server := net.NewEndpoint("/CN=server", nil)
	client := net.NewEndpoint("/CN=client", nil)
	ln, err := server.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sink := &logBuffer{}
	logger := slog.New(slog.NewTextHandler(sink, nil))
	go NewServer(HandlerFunc(func(Peer, *Message) *Message { return OKResult("ok") }), logger).Serve(ln)

	conn, err := client.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("{not json")); err != nil {
		t.Fatal(err)
	}
	// The server answers an error result and keeps the connection: a
	// single bad body must not kill the other multiplexed calls.
	raw, err := conn.Recv()
	if err != nil {
		t.Fatalf("server dropped the connection instead of answering: %v", err)
	}
	resp, err := DecodeMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.Granted {
		t.Fatalf("garbage answered with %+v, want denied result", resp)
	}
	// The connection still serves well-formed requests afterwards.
	ok, err := (&Message{Type: MsgStatus, ID: 7, Status: &StatusPayload{RARID: "r"}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(ok); err != nil {
		t.Fatal(err)
	}
	raw, err = conn.Recv()
	if err != nil {
		t.Fatalf("connection unusable after malformed frame: %v", err)
	}
	if resp, err = DecodeMessage(raw); err != nil || resp.ID != 7 {
		t.Fatalf("post-garbage call: resp=%+v err=%v", resp, err)
	}
	out := sink.String()
	if !strings.Contains(out, "malformed") || !strings.Contains(out, "/CN=client") {
		t.Errorf("malformed message not logged with peer:\n%s", out)
	}
}
