package topology

import (
	"testing"
	"testing/quick"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
)

func buildDiamond(t *testing.T) *Topology {
	t.Helper()
	tp := New()
	for _, name := range []string{"A", "B", "C", "D"} {
		if err := tp.AddDomain(Domain{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	// A-B-D and A-C-D; B path cheaper.
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tp.AddLink(Link{A: "A", B: "B", Capacity: units.Gbps}))
	must(tp.AddLink(Link{A: "B", B: "D", Capacity: units.Gbps}))
	must(tp.AddLink(Link{A: "A", B: "C", Capacity: units.Gbps, Cost: 5}))
	must(tp.AddLink(Link{A: "C", B: "D", Capacity: units.Gbps, Cost: 5}))
	return tp
}

func TestAddDomainAndLinkErrors(t *testing.T) {
	tp := New()
	if err := tp.AddDomain(Domain{}); err == nil {
		t.Error("empty domain name accepted")
	}
	if err := tp.AddDomain(Domain{Name: "A"}); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink(Link{A: "A", B: "Z"}); err == nil {
		t.Error("link to unknown domain accepted")
	}
	if err := tp.AddLink(Link{A: "A", B: "A"}); err == nil {
		t.Error("self link accepted")
	}
}

func TestPathShortest(t *testing.T) {
	tp := buildDiamond(t)
	path, err := tp.Path("A", "D")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "B", "D"}
	if len(path) != 3 || path[0] != want[0] || path[1] != want[1] || path[2] != want[2] {
		t.Errorf("path = %v, want %v", path, want)
	}
}

func TestPathSameDomain(t *testing.T) {
	tp := buildDiamond(t)
	path, err := tp.Path("A", "A")
	if err != nil || len(path) != 1 || path[0] != "A" {
		t.Errorf("path = %v err = %v", path, err)
	}
}

func TestPathUnknownAndDisconnected(t *testing.T) {
	tp := buildDiamond(t)
	if _, err := tp.Path("A", "Z"); err == nil {
		t.Error("path to unknown domain computed")
	}
	if _, err := tp.Path("Z", "A"); err == nil {
		t.Error("path from unknown domain computed")
	}
	if err := tp.AddDomain(Domain{Name: "island"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Path("A", "island"); err == nil {
		t.Error("path to disconnected domain computed")
	}
}

func TestNextHop(t *testing.T) {
	tp := buildDiamond(t)
	hop, err := tp.NextHop("A", "D")
	if err != nil || hop != "B" {
		t.Errorf("NextHop = %q err=%v, want B", hop, err)
	}
	if _, err := tp.NextHop("D", "D"); err == nil {
		t.Error("NextHop at destination must error")
	}
}

func TestLinearTopology(t *testing.T) {
	tp, err := Linear(4, 100*units.Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if got := tp.Domains(); len(got) != 4 {
		t.Fatalf("domains = %v", got)
	}
	path, err := tp.Path("Domain0", "Domain3")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 {
		t.Errorf("path = %v, want 4 hops inclusive", path)
	}
	if d, ok := tp.Domain("Domain2"); !ok || d.BBDN != identity.NewDN("Grid", "Domain2", "bb-2") {
		t.Errorf("Domain2 = %+v ok=%v, want broker bb-2", d, ok)
	}
	l, ok := tp.LinkBetween("Domain1", "Domain2")
	if !ok || l.Capacity != 100*units.Mbps {
		t.Errorf("link = %+v ok=%v", l, ok)
	}
}

func TestLinearLabels(t *testing.T) {
	tp, err := Linear(3, units.Gbps, "DomainA", "DomainB", "DomainC")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tp.Domain("DomainB"); !ok {
		t.Error("labelled domain missing")
	}
	if _, err := Linear(3, units.Gbps, "onlyone"); err == nil {
		t.Error("label count mismatch accepted")
	}
	if _, err := Linear(0, units.Gbps); err == nil {
		t.Error("zero domains accepted")
	}
}

func TestNeighborsSorted(t *testing.T) {
	tp := buildDiamond(t)
	n := tp.Neighbors("A")
	if len(n) != 2 || n[0] != "B" || n[1] != "C" {
		t.Errorf("neighbors = %v", n)
	}
	if len(tp.Neighbors("nonexistent")) != 0 {
		t.Error("unknown domain has neighbors")
	}
}

// Property: on a linear topology every computed path is the contiguous
// domain interval between the endpoints.
func TestLinearPathProperty(t *testing.T) {
	tp, err := Linear(10, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		i, j := int(a)%10, int(b)%10
		src := tp.Domains()[0]
		_ = src
		from := tp.Domains()
		path, err := tp.Path(from[i], from[j])
		if err != nil {
			return false
		}
		lo, hi := i, j
		if lo > hi {
			lo, hi = hi, lo
		}
		return len(path) == hi-lo+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDomainOfBB(t *testing.T) {
	tp, err := Linear(4, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tp.Domains() {
		d, _ := tp.Domain(name)
		got, ok := tp.DomainOfBB(d.BBDN)
		if !ok || got != name {
			t.Errorf("DomainOfBB(%s) = %q, %v; want %q", d.BBDN, got, ok, name)
		}
	}
	if _, ok := tp.DomainOfBB("/O=Grid/OU=Nowhere/CN=bb-x"); ok {
		t.Error("unknown BB DN resolved")
	}
}

func TestDomainOfBBTracksReplacement(t *testing.T) {
	tp := New()
	if err := tp.AddDomain(Domain{Name: "A", BBDN: "/CN=old"}); err != nil {
		t.Fatal(err)
	}
	// Re-adding the domain with a new broker must drop the old mapping.
	if err := tp.AddDomain(Domain{Name: "A", BBDN: "/CN=new"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tp.DomainOfBB("/CN=old"); ok {
		t.Error("stale BB mapping survived domain replacement")
	}
	if got, ok := tp.DomainOfBB("/CN=new"); !ok || got != "A" {
		t.Errorf("DomainOfBB(new) = %q, %v; want A", got, ok)
	}
}
