// Package billing implements the transitive billing scheme §6.4
// sketches: "Whenever a domain actually bills the requesting entity
// for the use of the network service, SLAs are already used to set up
// a transitive billing relation in multi-domain networks. When network
// traffic enters domain C through domain B, it is billed using the
// agreement between B and C. B as a transient domain, however, would
// also bill traffic originating from a different domain using the
// related SLA. Finally, the source domain would bill the traffic
// against the originator."
//
// Each domain keeps a ledger of usage per reservation; settlement
// walks the signalling path backwards, producing one invoice per SLA
// edge plus the source domain's invoice to the user, each domain
// adding its own margin on top of what it owes downstream.
package billing

import (
	"fmt"
	"sync"

	"e2eqos/internal/identity"
)

// Rate is a price in micro-currency-units per gigabyte carried.
type Rate int64

// Money is an amount in micro-currency-units.
type Money int64

// String renders money in currency units with 6 decimals.
func (m Money) String() string {
	return fmt.Sprintf("%d.%06d", m/1_000_000, m%1_000_000)
}

// Charge computes the cost of carrying bytes at this rate.
func (r Rate) Charge(bytes int64) Money {
	// per-GB pricing with integer arithmetic: bytes * rate / 1e9.
	return Money(bytes / 1_000 * int64(r) / 1_000_000)
}

// Usage is the measured consumption of one reservation.
type Usage struct {
	Bytes int64
}

// Invoice is one billing relation settled for one reservation.
type Invoice struct {
	// From bills To.
	From string
	To   string
	// ToUser is set (and To empty) on the source domain's invoice to
	// the originator.
	ToUser identity.DN
	Bytes  int64
	Amount Money
}

// Party describes one domain's pricing on a settlement path.
type Party struct {
	// Domain is the administrative domain name.
	Domain string
	// TransitRate is what the domain charges its upstream neighbour
	// per GB entering through it (the SLA price).
	TransitRate Rate
}

// SettlePath produces the transitive invoice chain for a usage along
// the ordered domain path [source, ..., destination]. The destination
// bills its upstream neighbour at its transit rate; every transit
// domain bills upstream what it owes downstream plus its own transit
// rate; the source domain bills the user the accumulated total plus
// its own rate.
func SettlePath(path []Party, user identity.DN, usage Usage) ([]Invoice, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("billing: empty path")
	}
	if usage.Bytes < 0 {
		return nil, fmt.Errorf("billing: negative usage")
	}
	var invoices []Invoice
	var owed Money
	// Walk destination -> source.
	for i := len(path) - 1; i >= 1; i-- {
		amount := owed + path[i].TransitRate.Charge(usage.Bytes)
		invoices = append(invoices, Invoice{
			From:   path[i].Domain,
			To:     path[i-1].Domain,
			Bytes:  usage.Bytes,
			Amount: amount,
		})
		owed = amount
	}
	// Source bills the originator.
	total := owed + path[0].TransitRate.Charge(usage.Bytes)
	invoices = append(invoices, Invoice{
		From:   path[0].Domain,
		ToUser: user,
		Bytes:  usage.Bytes,
		Amount: total,
	})
	return invoices, nil
}

// Ledger accumulates usage per reservation for one domain. It is safe
// for concurrent use.
type Ledger struct {
	mu    sync.Mutex
	usage map[string]*Usage
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{usage: make(map[string]*Usage)}
}

// Record adds carried bytes for a reservation.
func (l *Ledger) Record(rarID string, bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("billing: negative bytes")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	u := l.usage[rarID]
	if u == nil {
		u = &Usage{}
		l.usage[rarID] = u
	}
	u.Bytes += bytes
	return nil
}

// Usage returns the accumulated usage for a reservation.
func (l *Ledger) Usage(rarID string) (Usage, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	u, ok := l.usage[rarID]
	if !ok {
		return Usage{}, false
	}
	return *u, true
}
