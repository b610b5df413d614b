package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Accept and Close used to race on a lazily initialised channel; run
// them concurrently and require Accept to return promptly.
func TestMemoryListenerAcceptCloseRace(t *testing.T) {
	for i := 0; i < 50; i++ {
		n := NewNetwork(0)
		ep := n.NewEndpoint("/CN=x", nil)
		ln, err := ep.Listen("addr")
		if err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		var start sync.WaitGroup
		start.Add(2)
		go func() {
			start.Done()
			start.Wait()
			_, err := ln.Accept()
			got <- err
		}()
		go func() {
			start.Done()
			start.Wait()
			ln.Close()
		}()
		select {
		case err := <-got:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("Accept returned %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Accept blocked after Close")
		}
	}
}

func TestMemoryListenerCloseDrainsBacklog(t *testing.T) {
	n := NewNetwork(0)
	server := n.NewEndpoint("/CN=s", nil)
	client := n.NewEndpoint("/CN=c", nil)
	ln, err := server.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := client.Dial("s") // queued, never accepted
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := conn.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv returned %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dialer Recv still blocked after listener close")
	}
	if err := conn.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after drain returned %v, want ErrClosed", err)
	}
}

func TestMemoryDialAfterCloseRefused(t *testing.T) {
	n := NewNetwork(0)
	server := n.NewEndpoint("/CN=s", nil)
	client := n.NewEndpoint("/CN=c", nil)
	ln, err := server.Listen("s")
	if err != nil {
		t.Fatal(err)
	}
	// Grab the listener before Close removes it from the address map,
	// modelling the dial/close race.
	l := ln.(*memListener)
	ln.Close()
	_, s := newMemPair(n, client, server)
	if err := l.enqueue(s); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close returned %v, want ErrClosed", err)
	}
}

// A full backlog must refuse before the handshake latency is paid, and
// both halves of the refused pair must be closed.
func TestMemoryDialFullBacklogRefusesFast(t *testing.T) {
	n := NewNetwork(0)
	server := n.NewEndpoint("/CN=s", nil)
	client := n.NewEndpoint("/CN=c", nil)
	if _, err := server.Listen("s"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := client.Dial("s"); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	n.Latency = 250 * time.Millisecond
	start := time.Now()
	_, err := client.Dial("s")
	if err == nil {
		t.Fatal("dial into full backlog succeeded")
	}
	if elapsed := time.Since(start); elapsed >= n.Latency {
		t.Errorf("refused dial took %v, should not pay the %v handshake latency", elapsed, n.Latency)
	}
}

// --- fault injection ------------------------------------------------------

// recvWithin is conn.Recv bounded by closing conn after d: a Recv with
// nothing to deliver by then fails with the close.
func recvWithin(conn Conn, d time.Duration) ([]byte, error) {
	timer := time.AfterFunc(d, func() { conn.Close() })
	defer timer.Stop()
	return conn.Recv()
}

// echoListener accepts one conn and echoes every message.
func echoListener(t *testing.T, n *Network, addr string) {
	t.Helper()
	srv := n.NewEndpoint("/CN=echo", nil)
	ln, err := srv.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					msg, err := conn.Recv()
					if err != nil {
						return
					}
					if err := conn.Send(msg); err != nil {
						return
					}
				}
			}()
		}
	}()
}

// on returns a Script that answers a for every message in the given
// direction, counting them into n, and passes the rest.
func on(send bool, a FaultAction, n *atomic.Int64) Script {
	return func(_ string, s bool, _ []byte) FaultAction {
		if s != send {
			return FaultPass
		}
		n.Add(1)
		return a
	}
}

func TestFaultySendDropTimesOutAtReader(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	var drops atomic.Int64
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), on(true, FaultDrop, &drops))
	conn, err := d.Dial("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("lost")); err != nil {
		t.Fatalf("dropped send should appear successful, got %v", err)
	}
	if _, err := recvWithin(conn, 50*time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv returned %v, want nothing before the close (request was dropped)", err)
	}
	if got := drops.Load(); got != 1 {
		t.Errorf("script dropped %d sends, want 1", got)
	}
}

func TestFaultyHangHonoursDeadline(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	var hangs atomic.Int64
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), on(true, FaultHang, &hangs))
	conn, err := d.Dial("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetSendDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	if err := conn.Send([]byte("x")); !IsTimeout(err) {
		t.Fatalf("hung Send returned %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("hang released after %v, want ~deadline", elapsed)
	}
}

// TestFaultyResetClosesConn: a reset fails the message it lands on and
// closes the connection under it, so the next message fails although
// the script passes it.
func TestFaultyResetClosesConn(t *testing.T) {
	for _, send := range []bool{true, false} {
		n := NewNetwork(0)
		echoListener(t, n, "echo")
		var first atomic.Bool
		d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), func(_ string, s bool, _ []byte) FaultAction {
			if s == send && first.CompareAndSwap(false, true) {
				return FaultReset
			}
			return FaultPass
		})
		conn, err := d.Dial("echo")
		if err != nil {
			t.Fatal(err)
		}
		err = conn.Send([]byte("x"))
		if !send {
			if err != nil {
				t.Fatalf("send before a receive-side reset: %v", err)
			}
			_, err = recvWithin(conn, time.Second)
		}
		if err == nil {
			t.Fatalf("send=%t: reset operation succeeded", send)
		}
		// The underlying conn is closed: further use fails fast.
		if err := conn.Send([]byte("y")); err == nil {
			t.Fatalf("send=%t: send after reset succeeded", send)
		}
	}
}

// TestFaultyCrashAfterN: a script that counts the messages crossing a
// connection and resets it past the fourth models a peer that dies
// mid-conversation.
func TestFaultyCrashAfterN(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	var msgs atomic.Int64
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), func(string, bool, []byte) FaultAction {
		if msgs.Add(1) > 4 {
			return FaultReset
		}
		return FaultPass
	})
	conn, err := d.Dial("echo")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // 2 sends + 2 recvs = 4 messages
		if err := conn.Send([]byte("m")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := conn.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if err := conn.Send([]byte("m")); err == nil {
		t.Fatal("send after crash threshold succeeded")
	}
	if _, err := recvWithin(conn, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after the crash returned %v, want the connection closed", err)
	}
}

func TestFaultyRecvDropSkipsMessage(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	var drops atomic.Int64
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), on(false, FaultDrop, &drops))
	conn, err := d.Dial("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, err := recvWithin(conn, 50*time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv returned %v, want nothing before the close (response dropped)", err)
	}
	if got := drops.Load(); got != 1 {
		t.Errorf("script dropped %d receives, want 1", got)
	}
}

// TestFaultyScriptPicksMessages: a Script sees the dialled address, the
// direction and the payload, and its verdict — drop, duplicate, pass —
// lands on exactly the message it was given for, in both directions.
func TestFaultyScriptPicksMessages(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), func(addr string, send bool, msg []byte) FaultAction {
		if addr != "echo" {
			t.Errorf("script saw address %q", addr)
		}
		switch {
		case send && string(msg) == "lost":
			return FaultDrop
		case send && string(msg) == "twice":
			return FaultDuplicate
		case !send && string(msg) == "echoed-twice":
			return FaultDuplicate
		case !send && string(msg) == "unheard":
			return FaultDrop
		}
		return FaultPass
	})
	conn, err := d.Dial("echo")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, m := range []string{"lost", "a", "twice", "unheard", "echoed-twice", "b"} {
		if err := conn.Send([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	bound := time.AfterFunc(2*time.Second, func() { conn.Close() })
	defer bound.Stop()
	for _, want := range []string{"a", "twice", "twice", "echoed-twice", "echoed-twice", "b"} {
		got, err := conn.Recv()
		if err != nil || string(got) != want {
			t.Fatalf("Recv = %q, %v; want %q", got, err, want)
		}
		// One Recv, one owner: what this caller does to its message is
		// not seen by the next, a duplicate included.
		for i := range got {
			got[i] = 0xA5
		}
	}
}
