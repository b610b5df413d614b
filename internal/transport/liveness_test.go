package transport

import (
	"errors"
	"sync"
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

func TestFaultySendDropTimesOutAtReader(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), FaultConfig{SendDropProb: 1})
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
	if got := d.Stats().SendDrops.Load(); got != 1 {
		t.Errorf("SendDrops = %d, want 1", got)
	}
}

func TestFaultyHangHonoursDeadline(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), FaultConfig{HangProb: 1})
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

func TestFaultyResetClosesConn(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), FaultConfig{ResetProb: 1})
	conn, err := d.Dial("echo")
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send([]byte("x")); err == nil {
		t.Fatal("reset Send succeeded")
	}
	// The underlying conn is closed: further use fails fast.
	if err := conn.Send([]byte("y")); err == nil {
		t.Fatal("send after reset succeeded")
	}
}

func TestFaultyCrashAfterN(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), FaultConfig{CrashAfter: 4})
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
	if got := d.Stats().Crashes.Load(); got == 0 {
		t.Error("crash not recorded")
	}
}

func TestFaultyDialFail(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), FaultConfig{DialFailProb: 1})
	if _, err := d.Dial("echo"); err == nil {
		t.Fatal("injected dial failure did not fail")
	}
}

func TestFaultyRecvDropSkipsMessage(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	// Deterministic rng: with probability 0.5 and a fixed seed the
	// drop pattern is stable; instead use 1.0 and assert timeout.
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), FaultConfig{RecvDropProb: 1})
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
	if got := d.Stats().RecvDrops.Load(); got == 0 {
		t.Error("RecvDrops not recorded")
	}
}

// TestFaultyScriptPicksMessages: a Script sees the dialled address, the
// direction and the payload, and its verdict — drop, duplicate, pass —
// lands on exactly the message it was given for, in both directions.
func TestFaultyScriptPicksMessages(t *testing.T) {
	n := NewNetwork(0)
	echoListener(t, n, "echo")
	d := NewFaultyDialer(n.NewEndpoint("/CN=c", nil), FaultConfig{
		Script: func(addr string, send bool, msg []byte) FaultAction {
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
		},
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
	if s := d.Stats(); s.SendDrops.Load() != 1 || s.RecvDrops.Load() != 1 {
		t.Errorf("drops recorded: send %d, recv %d, want one each", s.SendDrops.Load(), s.RecvDrops.Load())
	}
}
