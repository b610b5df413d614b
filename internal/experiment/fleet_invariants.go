package experiment

import (
	"sort"
	"time"

	"e2eqos/internal/resv"
	"e2eqos/internal/units"
)

// Cross-cutting invariant checkers, asserted after every scenario.
// They read the brokers' reservation tables and compare them against
// the engine's own ledger of what the brokers answered: the point is
// to catch admission, rollback or cancel regressions in the brokers,
// so nothing here trusts the code path that produced the state. A
// failed check lands in e.violations and fails the whole fleet run.

// checkInvariants runs the battery and returns the names of the
// checks that passed (violations accumulate separately).
func (e *fleetEngine) checkInvariants() []string {
	var passed []string
	if e.checkCapacity() {
		passed = append(passed, "granted<=capacity")
	}
	if e.checkLedger() {
		passed = append(passed, "zero-lost-or-double-grants")
	}
	if e.checkCommittedSums() {
		passed = append(passed, "aggregate-sums-consistent")
	}
	if e.checkDrained() {
		passed = append(passed, "drained-to-zero")
	}
	return passed
}

// checkCapacity asserts that no domain's table is overcommitted at any
// point of the scenario: the peak committed bandwidth over the whole
// horizon must leave Available non-negative.
func (e *fleetEngine) checkCapacity() bool {
	ok := true
	whole := units.Window{Start: e.base, End: e.at(e.sim.Now() + fleetWindowSlack)}
	for _, d := range e.domains {
		if avail := d.table.Available(whole); avail < 0 {
			e.violate("table %s overcommitted: available %v", d.table.Name(), avail)
			ok = false
		}
	}
	return ok
}

// checkLedger cross-checks every booking the brokers ever granted
// against their tables: live bookings must exist exactly once with
// matching bandwidth (zero lost grants), and no table may hold a
// granted reservation the ledger doesn't know (zero double grants: a
// refusal the brokers failed to roll back shows up here).
func (e *fleetEngine) checkLedger() bool {
	ok := true
	// Every handle the ledger thinks is live. A handle names its table,
	// so one set serves every domain.
	liveHandles := make(map[string]units.Bandwidth)
	flows := make([]string, 0, len(e.bookings))
	for f := range e.bookings {
		flows = append(flows, f)
	}
	sort.Strings(flows)
	for _, f := range flows {
		b := e.bookings[f]
		for i, d := range e.domains[:len(b.handles)] {
			r, found := d.table.Lookup(b.handles[i])
			if b.cancelled {
				// A cancelled booking may already be compacted away;
				// if still visible it must not consume capacity.
				if found && r.Status == resv.Granted {
					e.violate("cancelled booking %s still granted as %s", f, b.handles[i])
					ok = false
				}
				continue
			}
			liveHandles[b.handles[i]] = b.bw
			if !found {
				e.violate("lost grant: %s handle %s missing from %s", f, b.handles[i], d.table.Name())
				ok = false
				continue
			}
			if r.Status != resv.Granted || r.Bandwidth != b.bw {
				e.violate("grant %s mutated: status %v bw %v (want %v)", b.handles[i], r.Status, r.Bandwidth, b.bw)
				ok = false
			}
		}
	}
	// Every granted table entry must be in the ledger.
	for _, d := range e.domains {
		for _, r := range d.table.All() {
			if r.Status != resv.Granted {
				continue
			}
			if _, known := liveHandles[r.Handle]; !known {
				e.violate("double grant: %s holds %s the ledger never granted (or already cancelled)", d.table.Name(), r.Handle)
				ok = false
			}
		}
	}
	return ok
}

// checkCommittedSums asserts the running aggregate the fleet pushed to
// each domain's policer equals the committed bandwidth of the broker's
// table.
func (e *fleetEngine) checkCommittedSums() bool {
	ok := true
	now := e.at(e.sim.Now())
	for _, d := range e.domains {
		if c := d.table.CommittedAt(now); c != d.committed {
			e.violate("domain %s aggregate drift: table says %v, running sum %v", d.name, c, d.committed)
			ok = false
		}
	}
	return ok
}

// checkDrained asserts scenario teardown released everything: after
// drain, every domain's committed aggregate is zero, in the ledger and
// in the broker's table.
func (e *fleetEngine) checkDrained() bool {
	if !e.drained {
		return false
	}
	ok := true
	now := e.at(e.sim.Now())
	for _, d := range e.domains {
		if d.committed != 0 {
			e.violate("domain %s not drained: %v still committed", d.name, d.committed)
			ok = false
		}
		if c := d.table.CommittedAt(now); c != 0 {
			e.violate("table %s not drained: %v committed", d.table.Name(), c)
			ok = false
		}
	}
	return ok
}

// checkCompactionBounded is the churn scenario's extra check: the
// tables must not accumulate every reservation ever admitted. After a
// forced compact one retention past the horizon, nothing may remain.
func (e *fleetEngine) checkCompactionBounded(totalAdmits int64) bool {
	ok := true
	var lenBefore int64
	for _, d := range e.domains {
		lenBefore += int64(d.table.Len())
	}
	if totalAdmits > 1000 && lenBefore >= totalAdmits {
		e.violate("compaction never ran: %d entries retained of %d admits", lenBefore, totalAdmits)
		ok = false
	}
	horizon := e.at(e.sim.Now() + resv.DefaultRetention + fleetWindowSlack + time.Minute)
	for _, d := range e.domains {
		d.table.Compact(horizon)
		if n := d.table.Len(); n != 0 {
			e.violate("table %s leaked %d entries past retention", d.table.Name(), n)
			ok = false
		}
	}
	return ok
}
