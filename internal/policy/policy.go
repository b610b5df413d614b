// Package policy implements the local authorization policies bandwidth
// brokers enforce. The paper stresses that the signalling protocol is
// independent of policy syntax; this package provides the one concrete
// representation the paper's figures use: ordered decision lists of
// attribute-value conditions, e.g. Figure 6's
//
//	Policy File A:            If User = Alice
//	                            If Time > 8am and Time < 5pm
//	                              If BW <= 10Mb/s Return GRANT
//	                            Else if BW <= Avail_BW Return GRANT
//	                          Return DENY
//
// which is written in this package's DSL as
//
//	allow if user = "/O=Grid/OU=DomainA/CN=Alice" and time within 08:00..17:00 and bw <= 10Mb/s
//	allow if user = "/O=Grid/OU=DomainA/CN=Alice" and not time within 08:00..17:00 and bw <= avail
//	deny
//
// A condition tests a fact the broker's policy server supplies: the
// authenticated user, group memberships the group servers validated,
// capabilities whose chain verified for this RAR, the bandwidth against
// the local headroom, the time of day, the end domains and linked
// co-reservations (Parse lists the grammar).
//
// Rules are evaluated top to bottom; the first rule whose conditions
// all hold decides. An empty condition list always matches, so a bare
// trailing "deny" (or "allow") is the default clause. When no rule
// matches the decision is Deny.
package policy

import (
	"fmt"
	"strings"
	"time"

	"e2eqos/internal/identity"
	"e2eqos/internal/units"
)

// Effect is the outcome of a policy decision.
type Effect int

// Decision effects.
const (
	Deny Effect = iota
	Grant
)

func (e Effect) String() string {
	if e == Grant {
		return "GRANT"
	}
	return "DENY"
}

// Capability summarises one verified capability available to the
// requestor: the community that issued it.
type Capability struct {
	Community string
}

// Request is the evaluation context: everything Figure 6's policy files
// consult. Groups and Capabilities must already be *validated* by the
// caller (group server round trip, capability chain verification) —
// the engine treats them as facts.
type Request struct {
	// User is the authenticated requestor DN.
	User identity.DN
	// Groups are validated group memberships.
	Groups []string
	// Capabilities are verified capability grants.
	Capabilities []Capability
	// Bandwidth is the requested rate.
	Bandwidth units.Bandwidth
	// Available is the uncommitted local capacity on the relevant path
	// (the Avail_BW of Figure 6).
	Available units.Bandwidth
	// Time is the evaluation instant (reservation start).
	Time time.Time
	// SourceDomain and DestDomain name the end domains of the flow.
	SourceDomain string
	DestDomain   string
	// LinkedReservations carries verified references to co-reservations
	// by resource type, e.g. {"cpu": true} when the request presents a
	// valid CPU reservation handle (Figure 6's HasValidCPUResv(RAR)).
	LinkedReservations map[string]bool
}

// HasGroup reports a validated membership.
func (r *Request) HasGroup(g string) bool {
	for _, have := range r.Groups {
		if have == g {
			return true
		}
	}
	return false
}

// HasCapabilityFrom reports whether any verified capability was issued
// by the given community.
func (r *Request) HasCapabilityFrom(community string) bool {
	for _, c := range r.Capabilities {
		if c.Community == community {
			return true
		}
	}
	return false
}

// Decision is the result of evaluating a policy.
type Decision struct {
	Effect Effect
	// Reason is a human-readable trace.
	Reason string
}

// Granted is a convenience accessor.
func (d Decision) Granted() bool { return d.Effect == Grant }

// Condition is one conjunct of a rule.
type Condition interface {
	Eval(r *Request) bool
	String() string
}

// Rule is one decision-list entry.
type Rule struct {
	Effect     Effect
	Conditions []Condition
	// Source is the original DSL line, for traces.
	Source string
	// reason is the Decision.Reason of a match, "rule <n>: <Source>",
	// written once by Parse, which numbers the rules.
	reason string
}

// Matches reports whether all conditions hold.
func (ru *Rule) Matches(r *Request) bool {
	for _, c := range ru.Conditions {
		if !holds(c, r) {
			return false
		}
	}
	return true
}

// holds is c.Eval(r), called on the condition's own type wherever Parse
// made it: through the interface r would escape, and every caller's
// request with it.
func holds(c Condition, r *Request) bool {
	switch c := c.(type) {
	case notCond:
		return !holds(c.inner, r)
	case userCond:
		return c.Eval(r)
	case groupCond:
		return c.Eval(r)
	case capabilityCond:
		return c.Eval(r)
	case bwCond:
		return c.Eval(r)
	case timeCond:
		return c.Eval(r)
	case linkedCond:
		return c.Eval(r)
	case domainCond:
		return c.Eval(r)
	}
	rc := *r // a condition from elsewhere gets a copy
	return c.Eval(&rc)
}

// DefaultText is the policy of a domain that states none: admit what
// the domain has room for.
const DefaultText = "allow if bw <= avail\ndeny"

// Policy is an ordered decision list.
type Policy struct {
	Name  string
	Rules []*Rule
}

// Evaluate walks the decision list; first match wins, default deny.
func (p *Policy) Evaluate(r *Request) Decision {
	if r == nil {
		return Decision{Effect: Deny, Reason: "nil request"}
	}
	for _, ru := range p.Rules {
		if ru.Matches(r) {
			return Decision{Effect: ru.Effect, Reason: ru.reason}
		}
	}
	return Decision{Effect: Deny, Reason: "no matching rule (implicit deny)"}
}

// NamesRequester reports whether any rule tests who is asking: a user,
// group, capability or linked-reservation condition, negated or not.
// Those facts come from the innermost layer of the RAR, so a broker
// whose policy reads them checks every layer of the onion before it
// reads them. That catches an onion corrupted or forwarded unchecked on
// the way; it does not authenticate the user, whose key the neighbour
// introduces like any inner key (DESIGN.md §6.11).
func (p *Policy) NamesRequester() bool {
	for _, ru := range p.Rules {
		for _, c := range ru.Conditions {
			if namesRequester(c) {
				return true
			}
		}
	}
	return false
}

func namesRequester(c Condition) bool {
	switch c := c.(type) {
	case notCond:
		return namesRequester(c.inner)
	case userCond, groupCond, capabilityCond, linkedCond:
		return true
	}
	return false
}

// String renders the policy back in DSL form.
func (p *Policy) String() string {
	var b strings.Builder
	for _, ru := range p.Rules {
		b.WriteString(ru.Source)
		b.WriteByte('\n')
	}
	return b.String()
}

// --- Conditions -----------------------------------------------------------

// notCond negates a condition.
type notCond struct{ inner Condition }

func (c notCond) Eval(r *Request) bool { return !c.inner.Eval(r) }
func (c notCond) String() string       { return "not " + c.inner.String() }

// userCond matches the requestor DN exactly.
type userCond struct {
	dn     identity.DN
	negate bool
}

func (c userCond) Eval(r *Request) bool {
	eq := r.User == c.dn
	if c.negate {
		return !eq
	}
	return eq
}
func (c userCond) String() string {
	op := "="
	if c.negate {
		op = "!="
	}
	return fmt.Sprintf("user %s %q", op, string(c.dn))
}

// groupCond matches a validated group membership.
type groupCond struct{ group string }

func (c groupCond) Eval(r *Request) bool { return r.HasGroup(c.group) }
func (c groupCond) String() string       { return fmt.Sprintf("group = %q", c.group) }

// capabilityCond matches a capability issued by a community.
type capabilityCond struct{ community string }

func (c capabilityCond) Eval(r *Request) bool { return r.HasCapabilityFrom(c.community) }
func (c capabilityCond) String() string       { return fmt.Sprintf("capability from %q", c.community) }

// bwCond compares the requested bandwidth against either a constant or
// the available capacity.
type bwCond struct {
	op       string // "<", "<=", ">", ">=", "="
	limit    units.Bandwidth
	useAvail bool
}

func (c bwCond) Eval(r *Request) bool {
	limit := c.limit
	if c.useAvail {
		limit = r.Available
	}
	switch c.op {
	case "<":
		return r.Bandwidth < limit
	case "<=":
		return r.Bandwidth <= limit
	case ">":
		return r.Bandwidth > limit
	case ">=":
		return r.Bandwidth >= limit
	case "=":
		return r.Bandwidth == limit
	default:
		return false
	}
}
func (c bwCond) String() string {
	if c.useAvail {
		return fmt.Sprintf("bw %s avail", c.op)
	}
	return fmt.Sprintf("bw %s %s", c.op, c.limit)
}

// timeCond matches when the request time-of-day falls inside
// [from, to) minutes. A window wrapping midnight (from > to) matches
// the complement interval. The clock is UTC: the instant decides, not
// the zone its sender wrote it in — a requester must not move a rule's
// hours by choosing an offset.
type timeCond struct {
	fromMin, toMin int
}

func (c timeCond) Eval(r *Request) bool {
	t := r.Time.UTC()
	m := t.Hour()*60 + t.Minute()
	if c.fromMin <= c.toMin {
		return m >= c.fromMin && m < c.toMin
	}
	return m >= c.fromMin || m < c.toMin
}
func (c timeCond) String() string {
	return fmt.Sprintf("time within %02d:%02d..%02d:%02d",
		c.fromMin/60, c.fromMin%60, c.toMin/60, c.toMin%60)
}

// linkedCond matches when a verified co-reservation of the given
// resource type is attached (Figure 6's HasValidCPUResv).
type linkedCond struct{ resource string }

func (c linkedCond) Eval(r *Request) bool { return r.LinkedReservations[c.resource] }
func (c linkedCond) String() string       { return fmt.Sprintf("has %s-reservation", c.resource) }

// domainCond matches the source or destination domain of the flow.
type domainCond struct {
	field string // "source" or "dest"
	value string
}

func (c domainCond) Eval(r *Request) bool {
	if c.field == "source" {
		return r.SourceDomain == c.value
	}
	return r.DestDomain == c.value
}
func (c domainCond) String() string { return fmt.Sprintf("%s = %q", c.field, c.value) }
