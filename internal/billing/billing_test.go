package billing

import (
	"sync"
	"testing"
	"testing/quick"

	"e2eqos/internal/identity"
)

var alice = identity.NewDN("Grid", "DomainA", "Alice")

func path3() []Party {
	return []Party{
		{Domain: "DomainA", TransitRate: 100_000}, // 0.10 per GB
		{Domain: "DomainB", TransitRate: 50_000},  // 0.05 per GB
		{Domain: "DomainC", TransitRate: 200_000}, // 0.20 per GB
	}
}

func TestRateCharge(t *testing.T) {
	r := Rate(1_000_000) // 1.00 per GB
	if got := r.Charge(1_000_000_000); got != 1_000_000 {
		t.Errorf("1GB at 1/GB = %v, want 1.000000", got)
	}
	if got := r.Charge(500_000_000); got != 500_000 {
		t.Errorf("0.5GB = %v", got)
	}
	if got := r.Charge(0); got != 0 {
		t.Errorf("0B = %v", got)
	}
}

func TestMoneyString(t *testing.T) {
	if Money(1_500_000).String() != "1.500000" {
		t.Errorf("got %s", Money(1_500_000).String())
	}
	if Money(42).String() != "0.000042" {
		t.Errorf("got %s", Money(42).String())
	}
}

func TestSettlePathTransitiveChain(t *testing.T) {
	usage := Usage{Bytes: 10_000_000_000} // 10 GB
	invoices, err := SettlePath(path3(), alice, usage)
	if err != nil {
		t.Fatal(err)
	}
	// C bills B; B bills A; A bills Alice.
	if len(invoices) != 3 {
		t.Fatalf("invoices = %d, want 3", len(invoices))
	}
	cToB, bToA, aToUser := invoices[0], invoices[1], invoices[2]
	if cToB.From != "DomainC" || cToB.To != "DomainB" {
		t.Errorf("invoice 0 = %+v", cToB)
	}
	if bToA.From != "DomainB" || bToA.To != "DomainA" {
		t.Errorf("invoice 1 = %+v", bToA)
	}
	if aToUser.From != "DomainA" || aToUser.ToUser != alice || aToUser.To != "" {
		t.Errorf("invoice 2 = %+v", aToUser)
	}
	// 10 GB: C charges 2.00; B passes it on plus 0.50 = 2.50; A bills
	// Alice 2.50 + 1.00 = 3.50.
	if cToB.Amount != 2_000_000 {
		t.Errorf("C->B = %s, want 2.000000", cToB.Amount)
	}
	if bToA.Amount != 2_500_000 {
		t.Errorf("B->A = %s, want 2.500000", bToA.Amount)
	}
	if aToUser.Amount != 3_500_000 {
		t.Errorf("A->user = %s, want 3.500000", aToUser.Amount)
	}
}

func TestSettlePathSingleDomain(t *testing.T) {
	invoices, err := SettlePath(path3()[:1], alice, Usage{Bytes: 1_000_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(invoices) != 1 || invoices[0].ToUser != alice {
		t.Fatalf("invoices = %+v", invoices)
	}
	if invoices[0].Amount != 100_000 {
		t.Errorf("amount = %s", invoices[0].Amount)
	}
}

func TestSettlePathErrors(t *testing.T) {
	if _, err := SettlePath(nil, alice, Usage{}); err == nil {
		t.Error("empty path settled")
	}
	if _, err := SettlePath(path3(), alice, Usage{Bytes: -1}); err == nil {
		t.Error("negative usage settled")
	}
}

// Property: the user's invoice always equals the sum of every domain's
// own transit charge — no money is created or destroyed along the
// chain.
func TestSettlementConservation(t *testing.T) {
	f := func(rates []uint32, gb uint16) bool {
		if len(rates) == 0 {
			return true
		}
		if len(rates) > 12 {
			rates = rates[:12]
		}
		path := make([]Party, len(rates))
		var want Money
		bytes := int64(gb) * 1_000_000_000
		for i, r := range rates {
			rate := Rate(r % 10_000_000)
			path[i] = Party{Domain: string(rune('A' + i)), TransitRate: rate}
			want += rate.Charge(bytes)
		}
		invoices, err := SettlePath(path, alice, Usage{Bytes: bytes})
		if err != nil {
			return false
		}
		return invoices[len(invoices)-1].Amount == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLedger(t *testing.T) {
	l := NewLedger()
	if err := l.Record("RAR-1", 500); err != nil {
		t.Fatal(err)
	}
	if err := l.Record("RAR-1", 250); err != nil {
		t.Fatal(err)
	}
	if err := l.Record("RAR-2", 100); err != nil {
		t.Fatal(err)
	}
	u, ok := l.Usage("RAR-1")
	if !ok || u.Bytes != 750 {
		t.Errorf("usage = %+v ok=%v", u, ok)
	}
	if u, ok := l.Usage("RAR-2"); !ok || u.Bytes != 100 {
		t.Errorf("usage = %+v ok=%v", u, ok)
	}
	if _, ok := l.Usage("RAR-3"); ok {
		t.Error("unrecorded reservation has usage")
	}
	if err := l.Record("RAR-3", -1); err == nil {
		t.Error("negative bytes recorded")
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = l.Record("RAR-1", 10)
		}()
	}
	wg.Wait()
	u, _ := l.Usage("RAR-1")
	if u.Bytes != 1000 {
		t.Errorf("bytes = %d, want 1000", u.Bytes)
	}
}
