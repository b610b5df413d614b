package experiment

import (
	"sync/atomic"
	"testing"
	"time"

	"e2eqos/internal/dataplane/netsimdp"
	"e2eqos/internal/units"
)

// flood is more bytes than any profile here passes in a second.
const flood = 1 << 40

// markedIn opens a marking window for flow at virtual instant at and
// returns what the plane marks premium of a flood offered over the
// second after it.
func markedIn(p *netsimdp.Plane, flow string, at time.Duration) int64 {
	p.Mark(flow, 0, at)
	return p.Mark(flow, flood, at+time.Second)
}

// policedIn is markedIn for the plane's aggregate policer.
func policedIn(p *netsimdp.Plane, at time.Duration) int64 {
	p.Police(0, at)
	return p.Police(flood, at+time.Second)
}

// atRate is what a fresh meter at rate, with the broker's burst,
// passes of a flood over one second.
func atRate(rate units.Bandwidth) int64 {
	return defaultFleetBucket + rate.BytesIn(time.Second)
}

// TestBrokersProgramTheirPlanes: the planes World.Planes shows are the
// ones the brokers program, and they meter what the brokers granted.
// After a 3-domain grant of a window already open, the source plane
// marks the flow at its profile and every domain's plane polices at
// what its table commits now. After the cancel the flow marks nothing
// and every policer is closed again.
func TestBrokersProgramTheirPlanes(t *testing.T) {
	w, u := chainUser(t, 3, WorldConfig{})
	spec := u.NewSpec(SpecOptions{
		DestDomain: w.DestDomain(),
		Bandwidth:  10 * units.Mbps,
		Window:     units.NewWindow(w.clock().Add(-time.Minute), time.Hour),
	})
	res, err := u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("reserve: %v %+v", err, res)
	}
	src := w.Planes[w.SourceDomain()]
	if got, want := markedIn(src, spec.RARID, 0), atRate(spec.Bandwidth); got != want {
		t.Errorf("source plane marks %d bytes of the flow in a second, want its profile's %d", got, want)
	}
	for _, d := range w.Domains {
		committed := w.BBs[d].Table().CommittedAt(w.clock())
		if committed != spec.Bandwidth {
			t.Errorf("%s commits %v, want the grant's %v", d, committed, spec.Bandwidth)
		}
		if got, want := policedIn(w.Planes[d], 0), atRate(committed); got != want {
			t.Errorf("%s polices %d bytes in a second, want %d at its table's %v", d, got, want, committed)
		}
	}
	if err := u.Cancel(u.Domain, spec.RARID); err != nil {
		t.Fatal(err)
	}
	if got := markedIn(src, spec.RARID, 2*time.Second); got != 0 {
		t.Errorf("the cancelled flow still marks %d bytes", got)
	}
	for _, d := range w.Domains {
		if got, want := policedIn(w.Planes[d], 2*time.Second), atRate(1); got != want {
			t.Errorf("%s polices %d bytes in a second after the cancel, want a closed policer's %d", d, got, want)
		}
	}
}

// TestPlaneFollowsTableOnlyAtGrantAndCancel pins a gap: a broker
// programs its plane only when it grants, cancels, releases a split's
// share or is promoted, and then at what its table commits at that
// instant. A reservation granted for a window that opens later is
// missing from every domain's aggregate once the window opens, and one
// whose window has ended still marks at the source edge, until someone
// cancels it. Here a 10 Mb/s grant's window opens a minute after the
// grant (NewSpec's default) and lasts an hour. Mending it takes a
// re-sync at window boundaries; DESIGN.md §6.9 records the gap.
func TestPlaneFollowsTableOnlyAtGrantAndCancel(t *testing.T) {
	base := time.Now()
	var offset atomic.Int64
	w, u := chainUser(t, 2, WorldConfig{Clock: func() time.Time { return base.Add(time.Duration(offset.Load())) }})
	spec := u.NewSpec(SpecOptions{DestDomain: w.DestDomain(), Bandwidth: 10 * units.Mbps})
	res, err := u.ReserveE2E(spec)
	if err != nil || !res.Granted {
		t.Fatalf("reserve: %v %+v", err, res)
	}

	offset.Store(int64(2 * time.Minute)) // the window is open
	for _, d := range w.Domains {
		if c := w.BBs[d].Table().CommittedAt(w.clock()); c != spec.Bandwidth {
			t.Fatalf("%s commits %v inside the window, want %v", d, c, spec.Bandwidth)
		}
		if got, want := policedIn(w.Planes[d], 0), atRate(1); got != want {
			t.Errorf("%s polices %d bytes in a second, want the closed policer's %d: has the plane started following the table's windows?", d, got, want)
		}
	}

	offset.Store(int64(3 * time.Hour)) // the window has ended
	if c := w.BBs[w.SourceDomain()].Table().CommittedAt(w.clock()); c != 0 {
		t.Fatalf("source commits %v after the window, want 0", c)
	}
	if got, want := markedIn(w.Planes[w.SourceDomain()], spec.RARID, 0), atRate(spec.Bandwidth); got != want {
		t.Errorf("source plane marks %d bytes of the expired flow in a second, want the stale profile's %d: has the plane started following the table's windows?", got, want)
	}
}
