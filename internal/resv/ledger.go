package resv

import (
	"time"

	"e2eqos/internal/units"
)

// ledger is a table's time axis: an ordered map from instant to the
// net change in committed bandwidth at that instant. A reservation
// over [Start, End) contributes +bandwidth at Start and -bandwidth at
// End, so the committed level at an instant is the sum of every delta
// at or before it, and a release and an acquisition at one instant
// net out inside one node — the half-open rule.
//
// The map is a treap. Each node carries its subtree's delta sum and
// the highest level any in-order prefix of the subtree reaches, which
// turns "peak commitment over [s, e)" into one root-to-leaf descent:
// O(log n) expected for book, level and peak, none of which allocates
// once the free list is warm. A node whose delta returns to zero is
// unlinked and recycled, so the ledger's content is canonical: the
// sorted list of instants with a non-zero net delta.
//
// Keys are wall-clock instants compared with time.Time.Compare; the
// monotonic reading is stripped so that keys taken from the running
// clock and keys decoded from a snapshot share one total order. The
// zero ledger is empty and ready to use. Not safe for concurrent use;
// Table.mu guards it.
type ledger struct {
	root *node
	free *node  // recycled nodes, chained through left
	rnd  uint64 // xorshift state for node priorities
}

type node struct {
	at    time.Time
	delta units.Bandwidth // net change at this instant, never zero
	sum   units.Bandwidth // delta sum over the subtree
	// peak is the highest prefix sum over the subtree's in-order
	// prefixes, the empty prefix excluded.
	peak        units.Bandwidth
	pri         uint64
	left, right *node
}

// total is the subtree's delta sum; nil-safe.
func (n *node) total() units.Bandwidth {
	if n == nil {
		return 0
	}
	return n.sum
}

// fix recomputes n's aggregates from its children.
func (n *node) fix() {
	here := n.left.total() + n.delta
	n.sum = here + n.right.total()
	n.peak = here
	if n.left != nil {
		n.peak = max(n.peak, n.left.peak)
	}
	if n.right != nil {
		n.peak = max(n.peak, here+n.right.peak)
	}
}

// book commits bw over w; a negative bw releases a commitment booked
// earlier with the same window.
func (l *ledger) book(w units.Window, bw units.Bandwidth) {
	if bw == 0 {
		return
	}
	l.root = l.add(l.root, w.Start.Round(0), bw)
	l.root = l.add(l.root, w.End.Round(0), -bw)
}

// add applies delta d at instant at within the subtree n and returns
// the subtree's new root.
func (l *ledger) add(n *node, at time.Time, d units.Bandwidth) *node {
	if n == nil {
		return l.alloc(at, d)
	}
	switch c := at.Compare(n.at); {
	case c < 0:
		n.left = l.add(n.left, at, d)
		if n.left != nil && n.left.pri > n.pri {
			up := n.left
			n.left, up.right = up.right, n
			n.fix()
			n = up
		}
	case c > 0:
		n.right = l.add(n.right, at, d)
		if n.right != nil && n.right.pri > n.pri {
			up := n.right
			n.right, up.left = up.left, n
			n.fix()
			n = up
		}
	default:
		n.delta += d
		if n.delta == 0 {
			rest := merge(n.left, n.right)
			*n = node{left: l.free}
			l.free = n
			return rest
		}
	}
	n.fix()
	return n
}

// merge joins two treaps where every key of a precedes every key of b.
func merge(a, b *node) *node {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.pri > b.pri:
		a.right = merge(a.right, b)
		a.fix()
		return a
	default:
		b.left = merge(a, b.left)
		b.fix()
		return b
	}
}

// alloc returns a leaf for (at, d), recycled when possible.
func (l *ledger) alloc(at time.Time, d units.Bandwidth) *node {
	n := l.free
	if n != nil {
		l.free = n.left
	} else {
		n = new(node)
	}
	if l.rnd == 0 {
		l.rnd = 0x9E3779B97F4A7C15
	}
	l.rnd ^= l.rnd << 13
	l.rnd ^= l.rnd >> 7
	l.rnd ^= l.rnd << 17
	*n = node{at: at, delta: d, sum: d, peak: d, pri: l.rnd}
	return n
}

// level returns the committed bandwidth at instant at: the sum of
// every delta at or before it.
func (l *ledger) level(at time.Time) units.Bandwidth {
	at = at.Round(0)
	var acc units.Bandwidth
	for n := l.root; n != nil; {
		if n.at.Compare(at) <= 0 {
			acc += n.left.total() + n.delta
			n = n.right
		} else {
			n = n.left
		}
	}
	return acc
}

// peak returns the highest committed level reached during the
// half-open window w, never less than zero: the level at w.Start or
// the level from any breakpoint strictly inside (w.Start, w.End). An
// ill-formed window covers no instant and peaks at zero.
func (l *ledger) peak(w units.Window) units.Bandwidth {
	s, e := w.Start.Round(0), w.End.Round(0)
	if !e.After(s) {
		return 0
	}
	// Descend to the topmost node inside (s, e). acc is the delta sum
	// of every key that precedes the subtree under n.
	var acc units.Bandwidth
	n := l.root
	for n != nil {
		if n.at.Compare(s) <= 0 {
			acc += n.left.total() + n.delta
			n = n.right
		} else if n.at.Compare(e) >= 0 {
			n = n.left
		} else {
			break
		}
	}
	if n == nil {
		return max(acc, 0) // no breakpoint inside: the level at s holds throughout
	}
	mid := acc + n.left.total() + n.delta
	best := max(mid, 0)
	// Left of n every key is below e: a node above s brings its whole
	// right subtree into range with it.
	for m := n.left; m != nil; {
		if m.at.Compare(s) <= 0 {
			acc += m.left.total() + m.delta
			m = m.right
			continue
		}
		here := acc + m.left.total() + m.delta
		best = max(best, here)
		if m.right != nil {
			best = max(best, here+m.right.peak)
		}
		m = m.left
	}
	best = max(best, acc) // acc has become the level at s
	// Right of n every key is above s: a node below e brings its whole
	// left subtree into range with it.
	acc = mid
	for m := n.right; m != nil; {
		if m.at.Compare(e) >= 0 {
			m = m.left
			continue
		}
		if m.left != nil {
			best = max(best, acc+m.left.peak)
		}
		acc += m.left.total() + m.delta
		best = max(best, acc)
		m = m.right
	}
	return best
}

// each calls fn for every breakpoint in time order with the level
// that holds from it until the next one, and stops early when fn
// returns false.
func (l *ledger) each(fn func(at time.Time, level units.Bandwidth) bool) {
	var acc units.Bandwidth
	var walk func(n *node) bool
	walk = func(n *node) bool {
		if n == nil {
			return true
		}
		if !walk(n.left) {
			return false
		}
		acc += n.delta
		return fn(n.at, acc) && walk(n.right)
	}
	walk(l.root)
}
