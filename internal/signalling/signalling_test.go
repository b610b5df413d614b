package signalling

import (
	"encoding/json"
	"sync"
	"testing"

	"e2eqos/internal/envelope"
	"e2eqos/internal/identity"
	"e2eqos/internal/transport"
)

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(peer Peer, msg *Message) *Message

// Handle calls f.
func (f HandlerFunc) Handle(peer Peer, msg *Message) *Message { return f(peer, msg) }

// pending reports the number of c's in-flight calls and posts.
func pending(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

func TestMessageEncodeDecode(t *testing.T) {
	msg := &Message{
		Type:   MsgCancel,
		ID:     7,
		Cancel: &CancelPayload{RARID: "RAR-1"},
	}
	data, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgCancel || got.ID != 7 || got.Cancel.RARID != "RAR-1" {
		t.Errorf("round trip = %+v", got)
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	if _, err := DecodeMessage([]byte("junk")); err == nil {
		t.Error("junk decoded")
	}
	if _, err := DecodeMessage([]byte(`{"id":1}`)); err == nil {
		t.Error("typeless message decoded")
	}
}

func TestNewReserveMessageCarriesEnvelope(t *testing.T) {
	key, err := identity.GenerateKeyPair(identity.NewDN("Grid", "A", "alice"))
	if err != nil {
		t.Fatal(err)
	}
	env, err := envelope.Seal(key, envelope.Body{Request: json.RawMessage(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := NewReserveMessage(ModeEndToEnd, env)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Reserve.Mode != ModeEndToEnd {
		t.Errorf("mode = %s", msg.Reserve.Mode)
	}
	decoded, err := msg.Reserve.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	if decoded.SignerDN != key.DN {
		t.Errorf("signer = %s", decoded.SignerDN)
	}
}

func TestApprovalSignVerify(t *testing.T) {
	key, err := identity.GenerateKeyPair(identity.NewDN("Grid", "B", "bb-b"))
	if err != nil {
		t.Fatal(err)
	}
	a := DomainApproval{Domain: "B", BBDN: key.DN, RARID: "RAR-1", Handle: "h1", Granted: true}
	if err := SignApproval(&a, key); err != nil {
		t.Fatal(err)
	}
	if err := VerifyApproval(&a, key.Public()); err != nil {
		t.Fatalf("valid approval rejected: %v", err)
	}
	a.Granted = false
	if err := VerifyApproval(&a, key.Public()); err == nil {
		t.Fatal("tampered approval accepted")
	}
	if err := VerifyApproval(nil, key.Public()); err == nil {
		t.Fatal("nil approval accepted")
	}
}

// echoHandler grants every status request with the peer's DN as the
// handle, to exercise the RPC plumbing.
func echoHandler() Handler {
	return HandlerFunc(func(peer Peer, msg *Message) *Message {
		if msg.Type != MsgStatus {
			return ErrorResult("unexpected type")
		}
		return OKResult(string(peer.DN) + "/" + msg.Status.RARID)
	})
}

func TestClientServerRoundTrip(t *testing.T) {
	net := transport.NewNetwork(0)
	server := net.NewEndpoint("/CN=server", []byte("scert"))
	client := net.NewEndpoint("/CN=client", []byte("ccert"))
	ln, err := server.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go NewServer(echoHandler(), nil).Serve(ln)

	c, err := Dial(client, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.PeerDN() != "/CN=server" {
		t.Errorf("peer = %s", c.PeerDN())
	}
	resp, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "r1"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != MsgResult || !resp.Result.Granted || resp.Result.Handle != "/CN=client/r1" {
		t.Errorf("resp = %+v", resp.Result)
	}
}

func TestClientSerialisesConcurrentCalls(t *testing.T) {
	net := transport.NewNetwork(0)
	server := net.NewEndpoint("/CN=server", nil)
	client := net.NewEndpoint("/CN=client", nil)
	ln, err := server.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go NewServer(echoHandler(), nil).Serve(ln)

	c, err := Dial(client, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "r"}}, 0)
			if err != nil {
				errs <- err
				return
			}
			if !resp.Result.Granted {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServeRejectsNilHandlerResponse(t *testing.T) {
	net := transport.NewNetwork(0)
	server := net.NewEndpoint("/CN=server", nil)
	client := net.NewEndpoint("/CN=client", nil)
	ln, err := server.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go NewServer(HandlerFunc(func(Peer, *Message) *Message { return nil }), nil).Serve(ln)

	c, err := Dial(client, "srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Call(&Message{Type: MsgStatus, Status: &StatusPayload{RARID: "r"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.Granted {
		t.Errorf("expected synthesised error result, got %+v", resp.Result)
	}
}
