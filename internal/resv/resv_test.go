package resv

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
)

var t0 = time.Date(2001, 8, 7, 9, 0, 0, 0, time.UTC)

func win(startMin, durMin int) units.Window {
	return units.NewWindow(t0.Add(time.Duration(startMin)*time.Minute), time.Duration(durMin)*time.Minute)
}

func newTable(t *testing.T, cap units.Bandwidth) *Table {
	t.Helper()
	tab, err := NewTable("test", cap)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestNewTableRejectsBadCapacity(t *testing.T) {
	if _, err := NewTable("x", 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewTable("x", -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestAdmitWithinCapacity(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	r, err := tab.Admit(AdmitRequest{User: "/CN=alice", Bandwidth: 60 * units.Mbps, Window: win(0, 60)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Handle == "" || r.Status != Granted {
		t.Errorf("reservation = %+v", r)
	}
	if _, err := tab.Admit(AdmitRequest{User: "/CN=bob", Bandwidth: 40 * units.Mbps, Window: win(0, 60)}); err != nil {
		t.Errorf("fill to capacity rejected: %v", err)
	}
	if _, err := tab.Admit(AdmitRequest{User: "/CN=carol", Bandwidth: 1 * units.Mbps, Window: win(0, 60)}); err == nil {
		t.Error("overbooking accepted")
	}
}

func TestAdmitInvalidRequests(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 0, Window: win(0, 60)}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 1, Window: units.Window{Start: t0, End: t0}}); err == nil {
		t.Error("empty window accepted")
	}
}

func TestAdvanceReservationsNonOverlapping(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	// Two full-capacity reservations in disjoint windows must both fit.
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 100 * units.Mbps, Window: win(0, 60)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 100 * units.Mbps, Window: win(60, 60)}); err != nil {
		t.Errorf("adjacent window rejected: %v", err)
	}
}

func TestPeakOverlapDetection(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	// Staircase: [0,30) 50M, [20,50) 40M -> peak 90M in [20,30).
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 50 * units.Mbps, Window: win(0, 30)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 40 * units.Mbps, Window: win(20, 30)}); err != nil {
		t.Fatal(err)
	}
	// 20M over the whole hour collides with the 90M peak.
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 20 * units.Mbps, Window: win(0, 60)}); err == nil {
		t.Error("request exceeding peak accepted")
	}
	// 10M fits exactly.
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 10 * units.Mbps, Window: win(0, 60)}); err != nil {
		t.Errorf("exact-fit request rejected: %v", err)
	}
}

func TestAvailable(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	if got := tab.Available(win(0, 60)); got != 100*units.Mbps {
		t.Errorf("empty table available = %v", got)
	}
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 30 * units.Mbps, Window: win(0, 30)}); err != nil {
		t.Fatal(err)
	}
	if got := tab.Available(win(0, 60)); got != 70*units.Mbps {
		t.Errorf("available = %v, want 70Mb/s", got)
	}
	if got := tab.Available(win(30, 30)); got != 100*units.Mbps {
		t.Errorf("disjoint window available = %v, want 100Mb/s", got)
	}
}

func TestCancelReleasesCapacity(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	r, err := tab.Admit(AdmitRequest{Bandwidth: 100 * units.Mbps, Window: win(0, 60)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 1 * units.Mbps, Window: win(0, 60)}); err == nil {
		t.Fatal("full table admitted more")
	}
	if err := tab.Cancel(r.Handle); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 100 * units.Mbps, Window: win(0, 60)}); err != nil {
		t.Errorf("capacity not released: %v", err)
	}
	if err := tab.Cancel(r.Handle); err == nil {
		t.Error("double cancel accepted")
	}
	if err := tab.Cancel("nope"); err == nil {
		t.Error("cancel of unknown handle accepted")
	}
}

// TestValidHandleCheck: a handle backs a request only if it is granted,
// was admitted for the requester, and covers the request's whole window.
func TestValidHandleCheck(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	const alice, bob = identity.DN("/CN=alice"), identity.DN("/CN=bob")
	r, err := tab.Admit(AdmitRequest{User: alice, Bandwidth: 10 * units.Mbps, Window: win(0, 60)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		handle string
		user   identity.DN
		w      units.Window
		want   bool
	}{
		{"the holder, inside the window", r.Handle, alice, win(10, 20), true},
		{"the holder, the whole window", r.Handle, alice, win(0, 60), true},
		{"another user", r.Handle, bob, win(10, 20), false},
		{"starts before the window", r.Handle, alice, win(-1, 30), false},
		{"runs past the window", r.Handle, alice, win(30, 60), false},
		{"after the window", r.Handle, alice, win(61, 10), false},
		{"unknown handle", "nope", alice, win(10, 20), false},
	} {
		if got := tab.Covers(c.handle, c.user, c.w); got != c.want {
			t.Errorf("%s: Covers = %v, want %v", c.name, got, c.want)
		}
	}
	_ = tab.Cancel(r.Handle)
	if tab.Covers(r.Handle, alice, win(10, 20)) {
		t.Error("cancelled handle covers")
	}
}

func TestCommittedAt(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 10 * units.Mbps, Window: win(0, 30)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Admit(AdmitRequest{Bandwidth: 20 * units.Mbps, Window: win(20, 30)}); err != nil {
		t.Fatal(err)
	}
	if got := tab.CommittedAt(t0.Add(25 * time.Minute)); got != 30*units.Mbps {
		t.Errorf("committed at 25min = %v, want 30Mb/s", got)
	}
	if got := tab.CommittedAt(t0.Add(40 * time.Minute)); got != 20*units.Mbps {
		t.Errorf("committed at 40min = %v, want 20Mb/s", got)
	}
	if got := tab.CommittedAt(t0.Add(2 * time.Hour)); got != 0 {
		t.Errorf("committed after all windows = %v, want 0", got)
	}
}

func TestAllSorted(t *testing.T) {
	tab := newTable(t, units.Gbps)
	for i := 0; i < 5; i++ {
		if _, err := tab.Admit(AdmitRequest{Bandwidth: units.Mbps, Window: win(i*10, 10)}); err != nil {
			t.Fatal(err)
		}
	}
	all := tab.All()
	if len(all) != 5 {
		t.Fatalf("len = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Handle >= all[i].Handle {
			t.Fatalf("not sorted: %v", all)
		}
	}
}

// Property: whatever sequence of admissions succeeds, the committed
// bandwidth never exceeds capacity at any sampled instant.
func TestNeverOvercommitted(t *testing.T) {
	f := func(reqs []struct {
		Start uint8
		Dur   uint8
		BW    uint16
	}) bool {
		tab, err := NewTable("p", 1000)
		if err != nil {
			return false
		}
		for _, q := range reqs {
			w := win(int(q.Start), int(q.Dur%60)+1)
			_, _ = tab.Admit(AdmitRequest{Bandwidth: units.Bandwidth(q.BW), Window: w})
		}
		for m := 0; m < 330; m += 3 {
			if tab.CommittedAt(t0.Add(time.Duration(m)*time.Minute)) > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAdmission(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	// Pin the clock into the test's reservation era: enough admissions
	// cross the automatic compaction threshold, and with the real clock
	// the 2001 windows would count as long-dead and be swept mid-test.
	tab.SetClock(func() time.Time { return t0 })
	var wg sync.WaitGroup
	admitted := make(chan string, 200)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := tab.Admit(AdmitRequest{
				User:      "/CN=u",
				Bandwidth: 1 * units.Mbps,
				Window:    win(0, 60),
			})
			if err == nil {
				admitted <- r.Handle
			}
			_ = i
		}(i)
	}
	wg.Wait()
	close(admitted)
	n := 0
	seen := make(map[string]bool)
	for h := range admitted {
		if seen[h] {
			t.Fatalf("duplicate handle %s", h)
		}
		seen[h] = true
		n++
	}
	if n != 100 {
		t.Errorf("admitted %d concurrent 1Mb/s requests into 100Mb/s, want exactly 100", n)
	}
	if got := tab.CommittedAt(t0.Add(time.Minute)); got != 100*units.Mbps {
		t.Errorf("committed = %v", got)
	}
}

func TestHandleUniqueness(t *testing.T) {
	tab := newTable(t, units.Gbps)
	seen := make(map[string]bool)
	for i := 0; i < 50; i++ {
		r, err := tab.Admit(AdmitRequest{Bandwidth: units.Mbps, Window: win(0, 10)})
		if err != nil {
			t.Fatal(err)
		}
		if seen[r.Handle] {
			t.Fatalf("duplicate handle %s", r.Handle)
		}
		seen[r.Handle] = true
	}
	_ = fmt.Sprintf("%v", seen)
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	r1, err := tab.Admit(AdmitRequest{User: "/CN=a", Bandwidth: 40 * units.Mbps, Window: win(0, 60), Tunnel: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tab.Admit(AdmitRequest{User: "/CN=b", Bandwidth: 30 * units.Mbps, Window: win(30, 60)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Cancel(r2.Handle); err != nil {
		t.Fatal(err)
	}
	data, err := tab.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTable(data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := restored.Lookup(r1.Handle)
	if !ok || got.Bandwidth != 40*units.Mbps || !got.Tunnel {
		t.Errorf("restored r1 = %+v ok=%v", got, ok)
	}
	if restored.Covers(r2.Handle, "/CN=b", win(40, 10)) {
		t.Error("cancelled reservation revived by restore")
	}
	// Sequence continues: new handles must not collide.
	r3, err := restored.Admit(AdmitRequest{Bandwidth: units.Mbps, Window: win(0, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Handle == r1.Handle || r3.Handle == r2.Handle {
		t.Errorf("handle reuse after restore: %s", r3.Handle)
	}
	// Committed state preserved.
	if got := restored.CommittedAt(t0.Add(5 * time.Minute)); got != 41*units.Mbps {
		t.Errorf("committed = %v", got)
	}
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	if _, err := RestoreTable([]byte("junk")); err == nil {
		t.Error("junk restored")
	}
	for name, data := range restoreSeeds() {
		if _, err := RestoreTable(data); (err == nil) != (name == "sound") {
			t.Errorf("%s snapshot: err = %v", name, err)
		}
	}
}

// fakeClock is a settable time source for compaction tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
}

func TestCompactRemovesDeadReservations(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	clk := &fakeClock{now: t0}
	tab.SetClock(clk.Now)

	expired, err := tab.Admit(AdmitRequest{User: "/CN=a", Bandwidth: 10 * units.Mbps, Window: win(0, 10)})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := tab.Admit(AdmitRequest{User: "/CN=b", Bandwidth: 10 * units.Mbps, Window: win(0, 120)})
	if err != nil {
		t.Fatal(err)
	}
	live, err := tab.Admit(AdmitRequest{User: "/CN=c", Bandwidth: 10 * units.Mbps, Window: win(0, 120)})
	if err != nil {
		t.Fatal(err)
	}
	clk.Set(t0.Add(5 * time.Minute))
	if err := tab.Cancel(cancelled.Handle); err != nil {
		t.Fatal(err)
	}

	// Nothing is older than the retention horizon yet.
	if n := tab.Compact(t0.Add(6 * time.Minute)); n != 0 {
		t.Fatalf("early compact removed %d reservations", n)
	}
	// 20 minutes in: the expired window (ended at +10min) and the
	// cancellation (at +5min) are both past the 5-minute retention.
	if n := tab.Compact(t0.Add(20 * time.Minute)); n != 2 {
		t.Fatalf("compact removed %d reservations, want 2", n)
	}
	if _, ok := tab.Lookup(expired.Handle); ok {
		t.Error("expired reservation survived compaction")
	}
	if _, ok := tab.Lookup(cancelled.Handle); ok {
		t.Error("cancelled reservation survived compaction")
	}
	if _, ok := tab.Lookup(live.Handle); !ok {
		t.Error("live reservation was compacted")
	}
}

func TestAdmitSweepsAutomatically(t *testing.T) {
	tab := newTable(t, units.Bandwidth(1_000_000)*units.Mbps)
	clk := &fakeClock{now: t0}
	tab.SetClock(clk.Now)
	// A batch of short reservations, all long dead once the clock jumps.
	for i := 0; i < 10; i++ {
		if _, err := tab.Admit(AdmitRequest{User: "/CN=a", Bandwidth: units.Mbps, Window: win(0, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	clk.Set(t0.Add(time.Hour))
	// Drive enough admissions to cross the automatic sweep threshold;
	// the new windows sit around "now", so only the first batch is dead.
	handles := make([]string, 0, sweepEvery)
	for i := 0; i < sweepEvery; i++ {
		r, err := tab.Admit(AdmitRequest{User: "/CN=b", Bandwidth: units.Mbps, Window: win(70, 1)})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, r.Handle)
	}
	for i := 1; i <= 10; i++ {
		if _, ok := tab.Lookup(fmt.Sprintf("test-%d", i)); ok {
			t.Errorf("dead reservation test-%d survived the automatic sweep", i)
		}
	}
	for _, h := range handles {
		if _, ok := tab.Lookup(h); !ok {
			t.Errorf("current reservation %s was swept", h)
		}
	}
}

func TestCancelStampsCancelledAt(t *testing.T) {
	tab := newTable(t, 100*units.Mbps)
	clk := &fakeClock{now: t0}
	tab.SetClock(clk.Now)
	r, err := tab.Admit(AdmitRequest{User: "/CN=a", Bandwidth: 10 * units.Mbps, Window: win(0, 60)})
	if err != nil {
		t.Fatal(err)
	}
	at := t0.Add(7 * time.Minute)
	clk.Set(at)
	if err := tab.Cancel(r.Handle); err != nil {
		t.Fatal(err)
	}
	got, _ := tab.Lookup(r.Handle)
	if !got.CancelledAt.Equal(at) {
		t.Errorf("CancelledAt = %v, want %v", got.CancelledAt, at)
	}
}
