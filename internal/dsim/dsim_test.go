package dsim

import (
	"testing"
	"time"
)

func TestRunInOrder(t *testing.T) {
	s := New()
	var order []int
	if err := s.Schedule(3*time.Millisecond, func() { order = append(order, 3) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(1*time.Millisecond, func() { order = append(order, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(2*time.Millisecond, func() { order = append(order, 2) }); err != nil {
		t.Fatal(err)
	}
	if n := s.Run(0); n != 3 {
		t.Fatalf("executed %d events, want 3", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("now = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := s.Schedule(time.Millisecond, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: order = %v", order)
		}
	}
}

func TestScheduleInPastRejected(t *testing.T) {
	s := New()
	if err := s.Schedule(time.Millisecond, func() {}); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if err := s.Schedule(0, func() {}); err == nil {
		t.Fatal("scheduling in the past accepted")
	}
	if err := s.After(-time.Millisecond, func() {}); err == nil {
		t.Fatal("negative After accepted")
	}
	if err := s.Schedule(time.Second, nil); err == nil {
		t.Fatal("nil fn accepted")
	}
}

func TestAfterChainsRelativeTime(t *testing.T) {
	s := New()
	var times []time.Duration
	if err := s.After(time.Millisecond, func() {
		times = append(times, s.Now())
		if err := s.After(time.Millisecond, func() {
			times = append(times, s.Now())
		}); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run(0)
	if len(times) != 2 || times[0] != time.Millisecond || times[1] != 2*time.Millisecond {
		t.Errorf("times = %v", times)
	}
}

func TestHorizonStopsEarly(t *testing.T) {
	s := New()
	ran := 0
	for i := 1; i <= 5; i++ {
		if err := s.Schedule(time.Duration(i)*time.Second, func() { ran++ }); err != nil {
			t.Fatal(err)
		}
	}
	n := s.Run(2500 * time.Millisecond)
	if n != 2 || ran != 2 {
		t.Errorf("ran %d events (counted %d), want 2", n, ran)
	}
	if s.Now() != 2500*time.Millisecond {
		t.Errorf("clock = %v, want horizon", s.Now())
	}
	// Resume to exhaustion.
	n = s.Run(0)
	if n != 3 || ran != 5 {
		t.Errorf("resume ran %d (total %d)", n, ran)
	}
}

func TestHorizonAdvancesIdleClock(t *testing.T) {
	s := New()
	s.Run(time.Second)
	if s.Now() != time.Second {
		t.Errorf("idle run must advance clock to horizon, now = %v", s.Now())
	}
}

func TestManyEventsStaySorted(t *testing.T) {
	s := New()
	// Insert pseudo-random times; verify monotone execution.
	seed := uint64(42)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	last := time.Duration(-1)
	violations := 0
	for i := 0; i < 2000; i++ {
		at := time.Duration(next()%1_000_000) * time.Microsecond
		if err := s.Schedule(at, func() {
			if s.Now() < last {
				violations++
			}
			last = s.Now()
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(0)
	if violations != 0 {
		t.Errorf("%d ordering violations", violations)
	}
}
