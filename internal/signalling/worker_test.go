package signalling

import (
	"bytes"
	"compress/gzip"
	"io"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"testing"
	"time"

	"e2eqos/internal/transport"
)

// goid reads the calling goroutine's id off its stack header: the only
// way a handler can tell which goroutine it was given.
func goid() string {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	return string(f[1])
}

func statusMsg(rarid string) *Message {
	return &Message{Type: MsgStatus, Status: &StatusPayload{RARID: rarid}}
}

// TestWorkerOutOfOrderCompletion: with every parked worker stuck in a
// blocked handler, the requests behind them on the same connection are
// still answered — a slow request costs a goroutine, never the reader.
func TestWorkerOutOfOrderCompletion(t *testing.T) {
	c, ln := dialPair(t, 0)
	release := make(chan struct{})
	entered := make(chan struct{}, parkedWorkers)
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		if msg.Status.RARID == "block" {
			entered <- struct{}{}
			<-release
		}
		return OKResult(msg.Status.RARID)
	}), nil).Serve(ln)
	// Warm the connection so the blocked requests land on parked workers.
	for i := 0; i < 4*parkedWorkers; i++ {
		if _, err := c.Call(statusMsg("warm"), 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < parkedWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := c.Call(statusMsg("block"), 0); err != nil || resp.Result.Handle != "block" {
				t.Errorf("blocked call: resp=%+v err=%v", resp, err)
			}
		}()
	}
	for i := 0; i < parkedWorkers; i++ {
		<-entered
	}
	for i := 0; i < 2*parkedWorkers; i++ {
		id := strconv.Itoa(i)
		resp, err := c.Call(statusMsg(id), 2*time.Second)
		if err != nil || resp.Result.Handle != id {
			t.Fatalf("request %s behind %d blocked handlers: resp=%+v err=%v", id, parkedWorkers, resp, err)
		}
	}
	close(release)
	wg.Wait()
}

// TestWorkerReusedAndSurvivesPanic: one request after another on a
// connection is served by at most parkedWorkers goroutines — not one
// each — and a handler panic neither kills the worker that hit it nor
// the connection.
func TestWorkerReusedAndSurvivesPanic(t *testing.T) {
	c, ln := dialPair(t, 0)
	var mu sync.Mutex
	served := make(map[string]int)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		mu.Lock()
		served[goid()]++
		mu.Unlock()
		if msg.Status.RARID == "boom" {
			panic("poisoned request")
		}
		return OKResult(msg.Status.RARID)
	}), quiet).Serve(ln)
	const requests = 64
	for i := 0; i < requests; i++ {
		id := strconv.Itoa(i)
		if i%8 == 3 {
			id = "boom"
		}
		resp, err := c.Call(statusMsg(id), 0)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if id == "boom" && (resp.Result.Granted || resp.Result.Reason != "internal: handler panic") {
			t.Fatalf("panicking request answered %+v", resp.Result)
		}
		if id != "boom" && resp.Result.Handle != id {
			t.Fatalf("request %s answered %+v", id, resp.Result)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) > parkedWorkers {
		t.Errorf("%d sequential requests ran on %d goroutines, want at most %d", requests, len(served), parkedWorkers)
	}
}

// TestWorkerBurstBeyondBound: a burst larger than the parked bound is in
// the handler all at once (nothing queues for a worker) and every
// request of it is answered.
func TestWorkerBurstBeyondBound(t *testing.T) {
	c, ln := dialPair(t, 0)
	const burst = 16 * parkedWorkers
	var arrived sync.WaitGroup
	arrived.Add(burst)
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		if msg.Status.RARID != "warm" {
			arrived.Done()
			arrived.Wait() // returns only once the whole burst is in handlers
		}
		return OKResult(msg.Status.RARID)
	}), nil).Serve(ln)
	for i := 0; i < 2*parkedWorkers; i++ {
		if _, err := c.Call(statusMsg("warm"), 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp, err := c.Call(statusMsg(id), 5*time.Second)
			if err != nil || resp.Result.Handle != id {
				t.Errorf("burst request %s: resp=%+v err=%v", id, resp, err)
			}
		}(strconv.Itoa(i))
	}
	wg.Wait()
}

// TestWorkerGoroutinesEndWithConnection: parked workers are per
// connection and end with it — after Shutdown and client close the
// process is back to the goroutines it started with.
func TestWorkerGoroutinesEndWithConnection(t *testing.T) {
	// Earlier tests' connections may still be winding down: take the
	// baseline once the count has stopped falling.
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == base {
			break
		}
		base = n
	}
	net := transport.NewNetwork(0)
	ln, err := net.NewEndpoint("/CN=server", nil).Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message { return OKResult(msg.Status.RARID) }), nil)
	served := make(chan struct{})
	go func() { srv.Serve(ln); close(served) }()
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(net.NewEndpoint("/CN=client", nil), "srv")
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		var wg sync.WaitGroup
		for j := 0; j < 4*parkedWorkers; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Call(statusMsg("x"), 0); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if n := runtime.NumGoroutine(); n <= base {
		t.Fatalf("no goroutines above the baseline %d while 3 connections are open (%d)", base, n)
	}
	srv.Shutdown()
	<-served
	for _, c := range clients {
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, started with %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerStreamFramesInOrder: journal-stream frames are handled one
// at a time, in arrival order, on one goroutine (the reader) — each
// splices onto the one before — while ordinary requests on the same
// connection still run beside them.
func TestWorkerStreamFramesInOrder(t *testing.T) {
	c, ln := dialPair(t, 0)
	var mu sync.Mutex
	var order []int64
	readers := make(map[string]bool)
	inHandler := 0
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		if msg.Type != MsgJournalStream {
			return OKResult("status")
		}
		mu.Lock()
		inHandler++
		if inHandler > 1 {
			t.Error("two stream frames in the handler at once")
		}
		order = append(order, msg.JournalStream.FromSeq)
		readers[goid()] = true
		mu.Unlock()
		time.Sleep(200 * time.Microsecond) // long enough for the next frame to arrive
		mu.Lock()
		inHandler--
		mu.Unlock()
		return &Message{Type: MsgResult, Result: &ResultPayload{Granted: true, AckSeq: msg.JournalStream.FromSeq}}
	}), nil).Serve(ln)
	const frames = 100
	acks := make(chan int64, frames)
	for i := int64(0); i < frames; i++ {
		msg := &Message{Type: MsgJournalStream, JournalStream: &JournalStreamPayload{Domain: "d", FromSeq: i}}
		if err := c.Post(msg, time.Second, func(resp *Message) { acks <- resp.Result.AckSeq }); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if resp, err := c.Call(statusMsg("x"), 0); err != nil || resp.Result.Handle != "status" {
				t.Fatalf("status call beside the stream: resp=%+v err=%v", resp, err)
			}
		}
	}
	for i := int64(0); i < frames; i++ {
		if got := <-acks; got != i {
			t.Fatalf("ack %d arrived in position %d", got, i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, seq := range order {
		if seq != int64(i) {
			t.Fatalf("frame %d handled in position %d", seq, i)
		}
	}
	if len(readers) != 1 {
		t.Errorf("stream frames handled on %d goroutines, want the reader alone", len(readers))
	}
}

// deepHandler stands in for a broker handler: ten levels of it need
// about 12 KiB of stack, so a goroutine fresh off its 2 KiB start copies
// its stack three times to serve one request.
//
//go:noinline
func deepHandler(depth int, pad [512]byte) byte {
	if depth == 0 {
		return pad[0]
	}
	pad[depth] = byte(depth)
	return deepHandler(depth-1, pad) + pad[depth]
}

// BenchmarkServeRoundTrip is one request/response on a warm connection
// over the in-memory transport. Besides ns/op and allocs/op it reports
// newstack-seen: 1 when runtime.newstack shows up in a CPU profile of
// the run (request goroutines growing their stacks), 0 when it does
// not (parked workers keeping theirs).
func BenchmarkServeRoundTrip(b *testing.B) {
	net := transport.NewNetwork(0)
	ln, err := net.NewEndpoint("/CN=server", nil).Listen("srv")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go NewServer(HandlerFunc(func(_ Peer, msg *Message) *Message {
		deepHandler(10, [512]byte{})
		return OKResult(msg.Status.RARID)
	}), nil).Serve(ln)
	c, err := Dial(net.NewEndpoint("/CN=client", nil), "srv")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	msg := statusMsg("x")
	for i := 0; i < 100; i++ {
		if _, err := c.Call(msg, 0); err != nil {
			b.Fatal(err)
		}
	}
	var prof bytes.Buffer
	profiling := pprof.StartCPUProfile(&prof) == nil // fails under -cpuprofile: then report nothing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(msg, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if profiling {
		pprof.StopCPUProfile()
		// A function's name is in the profile's string table exactly when
		// some sample's stack holds it.
		seen := 0.0
		if zr, err := gzip.NewReader(&prof); err == nil {
			if raw, err := io.ReadAll(zr); err == nil && bytes.Contains(raw, []byte("runtime.newstack")) {
				seen = 1
			}
		}
		b.ReportMetric(seen, "newstack-seen")
	}
}
