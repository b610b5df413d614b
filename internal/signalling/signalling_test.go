package signalling

import (
	"encoding/json"
	"strings"
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

// TestVerifyGrantStatements holds VerifyGrant to its rule: a signature
// covers its own claim and every unsigned claim after it, up to the next
// signed one. One statement and a split's two verify; each of the
// refusals it owes is met, in its own words.
func TestVerifyGrantStatements(t *testing.T) {
	keys := map[string]*identity.KeyPair{}
	for _, d := range []string{"A", "B", "C"} {
		key, err := identity.GenerateKeyPair(identity.NewDN("Grid", d, "bb"))
		if err != nil {
			t.Fatal(err)
		}
		keys[d] = key
	}
	keyOf := func(domain string) (identity.PublicKey, bool) {
		key, ok := keys[domain]
		if !ok {
			return nil, false
		}
		return key.Public(), true
	}
	// statement is dest's grant of rarID over its own claim and the
	// claims of the domains named after it.
	statement := func(rarID, dest string, others ...string) []DomainApproval {
		claims := []DomainApproval{{Domain: dest, BBDN: keys[dest].DN, RARID: rarID, Handle: dest + "-1", Granted: true}}
		for _, d := range others {
			c := DomainApproval{Domain: d, Handle: d + "-1", Granted: true}
			if key, ok := keys[d]; ok {
				c.BBDN = key.DN
			}
			claims = append(claims, c)
		}
		if err := SignGrant(claims, keys[dest]); err != nil {
			t.Fatal(err)
		}
		return claims
	}
	grant := func(stmts ...[]DomainApproval) *ResultPayload {
		res := &ResultPayload{Granted: true}
		for _, s := range stmts {
			res.Approvals = append(res.Approvals, s...)
		}
		return res
	}
	if err := VerifyGrant(grant(statement("R", "C", "B", "A")), keyOf); err != nil {
		t.Fatalf("one statement: %v", err)
	}
	if err := VerifyGrant(grant(statement("R", "C", "B", "A"), statement("R", "C", "A")), keyOf); err != nil {
		t.Fatalf("a split's two statements: %v", err)
	}

	refusal := DomainApproval{Domain: "C", BBDN: keys["C"].DN, RARID: "R", Reason: "full"}
	if err := SignApproval(&refusal, keys["C"]); err != nil {
		t.Fatal(err)
	}
	refusal.Granted, refusal.Reason = true, ""
	unsigned := statement("R", "C", "B")
	unsigned[0].Signature = nil
	for _, c := range []struct {
		name string
		res  *ResultPayload
		want string
	}{
		{"a denial", &ResultPayload{Approvals: statement("R", "C")}, "not a grant"},
		{"no statement", grant(), "no statement"},
		{"an unsigned claim first", grant(unsigned), "claim by C is covered by no statement"},
		{"statements about two RARs", grant(statement("R", "C", "B"), statement("S", "C", "A")), "statement by C is about S, not R"},
		{"a refusal turned grant", grant([]DomainApproval{refusal, {Domain: "B", Handle: "B-1", Granted: true}}), "grant statement by C"},
		{"an empty claim appended", grant(append(statement("R", "C", "B"), DomainApproval{})), "grant statement by C"},
		{"a statement by an unknown domain", grant(statement("R", "C", "B"), []DomainApproval{{Domain: "X", RARID: "R", Granted: true, Signature: []byte{1}}}), "grant statement by unknown domain X"},
		{"a signed claim from an unknown domain", grant(statement("R", "C", "X")), "grant claim from unknown domain X"},
	} {
		err := VerifyGrant(c.res, keyOf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: VerifyGrant = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	notGranted := statement("R", "C", "B")
	notGranted[1].Granted = false
	if err := SignGrant(notGranted, keys["C"]); err != nil {
		t.Fatal(err)
	}
	if err := VerifyGrant(grant(notGranted), keyOf); err == nil || !strings.Contains(err.Error(), "claim by B on a grant does not say granted") {
		t.Errorf("a signed claim that does not say granted: VerifyGrant = %v", err)
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
