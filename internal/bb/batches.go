package bb

import (
	"cmp"
	"errors"
	"slices"
	"strings"
	"sync"

	"e2eqos/internal/identity"
	"e2eqos/internal/signalling"
)

// maxHeldBatches is how many replay entries a sender that has never
// acknowledged a batch may hold on one tunnel registration (the owner's
// one-shot qosctl sends Acked 0). Past it the oldest is retired and the
// sender's low-water raised past it. A sender that acknowledges is not
// capped: it holds its batches in flight and those that settled above
// the oldest of them, which its call timeout bounds, and a cap would
// retire a slow batch before its retransmission arrived.
const maxHeldBatches = 1024

var (
	errStaleBatch = errors.New("at or below its acknowledged low-water")
	errSeqReused  = errors.New("its ops differ from those of the batch held under that seq")
)

// batchCache is one tunnel registration's replay cache (DESIGN.md §6.5):
// the batches this end answered, each held until its sender acknowledges
// it. Every sender numbers its own batches, so each has its own window
// and low-water; only the peer broker and the tunnel owner may send
// (tunnelFor), so there are at most two. The lock is held for one
// window's bookkeeping and never while taking another.
type batchCache struct {
	mu      sync.Mutex
	windows []*batchWindow
}

// batchWindow is one sender's part of the cache: every batch above low,
// ascending by Seq, placeholders of batches still being applied
// included. acks is set once the sender acknowledged a batch, and lifts
// the cap; it is not journaled, and after a restart the sender's next
// acknowledgement sets it again.
type batchWindow struct {
	sender identity.DN
	low    int64
	acks   bool
	held   []heldBatch
}

// heldBatch is one replay entry: the batch's Seq, the opsSum of what it
// carried, and its outcome.
type heldBatch struct {
	seq int64
	sum uint64
	e   *entry[struct{}]
}

// window returns sender's window, made on first use. Caller holds c.mu.
func (c *batchCache) window(sender identity.DN) *batchWindow {
	for _, w := range c.windows {
		if w.sender == sender {
			return w
		}
	}
	w := &batchWindow{sender: identity.DN(strings.Clone(string(sender)))}
	c.windows = append(c.windows, w)
	return w
}

func (w *batchWindow) find(seq int64) (int, bool) {
	return slices.BinarySearchFunc(w.held, seq, func(h heldBatch, seq int64) int { return cmp.Compare(h.seq, seq) })
}

// raise retires every batch at or below low and moves the low-water up
// to it; a lower low changes nothing.
func (w *batchWindow) raise(low int64) {
	if low <= w.low {
		return
	}
	n := 0
	for n < len(w.held) && w.held[n].seq <= low {
		n++
	}
	w.held = slices.Delete(w.held, 0, n)
	w.low = low
}

// hold keeps h, whose seq is above low and not held yet.
func (w *batchWindow) hold(h heldBatch) {
	i, _ := w.find(h.seq)
	w.held = slices.Insert(w.held, i, h)
}

// begin registers a placeholder for batch seq of sender, whose ops sum
// to sum, or returns the entry already held under it with dup set. Two
// batches are refused without being applied: a stale one
// (errStaleBatch), at or below the sender's low-water, which settled and
// was retired; and one that reuses a held seq for other ops
// (errSeqReused), which a source that lost its last records can send
// (DESIGN.md §6.5). A fresh batch first raises the low-water to acked,
// retiring what its sender acknowledged; a sender that never
// acknowledged is capped at maxHeldBatches, the oldest retired first.
// The window's records carry the low-water the cap leaves, so restore
// needs no cap of its own. acked is at least 0 and below seq
// (TunnelBatchPayload.Validate refuses any other): a batch held below
// the low-water it raised is one no record or snapshot restores.
func (c *batchCache) begin(sender identity.DN, seq, acked int64, sum uint64) (e *entry[struct{}], dup bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.window(sender)
	if seq <= w.low {
		return nil, false, errStaleBatch
	}
	if i, held := w.find(seq); held {
		if w.held[i].sum != sum {
			return nil, false, errSeqReused
		}
		return w.held[i].e, true, nil
	}
	w.acks = w.acks || acked > 0
	w.raise(acked)
	e = &entry[struct{}]{pending: true, done: make(chan struct{})}
	w.hold(heldBatch{seq, sum, e})
	if !w.acks && len(w.held) > maxHeldBatches {
		w.raise(w.held[0].seq)
	}
	return e, false, nil
}

// settle records what sender's placeholder e answered and returns the
// sender's low-water, which the batch's record carries. A placeholder
// retired meanwhile settles all the same: its duplicates wait on it.
func (c *batchCache) settle(sender identity.DN, e *entry[struct{}], outcome *signalling.Message) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.outcome, e.pending = outcome, false
	return c.window(sender).low
}

// restore installs a settled batch of sender's from a record or a
// snapshot: the low-water rises to r.Low, then the batch is held if it is
// above it and not held yet (a Seq of 0 carries only the low-water).
// Records are absolute and the low-water only rises, so whatever order
// they come in, the window ends as the live one did: the batches above
// the highest low-water any record carries.
func (c *batchCache) restore(r *tunnelBatchRec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.window(r.Sender)
	w.raise(r.Low)
	if _, held := w.find(r.Seq); !held && r.Seq > w.low {
		w.hold(heldBatch{r.Seq, r.Sum, &entry[struct{}]{outcome: r.Outcome, done: settledCh}})
	}
}

// list returns the settled batches as the snapshot carries them, sorted
// by sender and Seq, each with its sender's low-water; a window that
// holds none but has a low-water is one row with Seq 0.
func (c *batchCache) list() []tunnelBatchRec {
	c.mu.Lock()
	var out []tunnelBatchRec
	for _, w := range c.windows {
		n := len(out)
		for _, h := range w.held {
			if !h.e.pending {
				out = append(out, tunnelBatchRec{Sender: w.sender, Seq: h.seq, Low: w.low, Sum: h.sum, Outcome: h.e.outcome})
			}
		}
		if len(out) == n && w.low > 0 {
			out = append(out, tunnelBatchRec{Sender: w.sender, Low: w.low})
		}
	}
	c.mu.Unlock()
	slices.SortStableFunc(out, func(a, b tunnelBatchRec) int { return strings.Compare(string(a.Sender), string(b.Sender)) })
	return out
}

// size is the number of batches held, placeholders included.
func (c *batchCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.windows {
		n += len(w.held)
	}
	return n
}

// opsSum fingerprints a batch's op list, so that a Seq carrying other
// ops than the batch held under it is told apart from a retransmission.
// It rides the batch's record, so it must not change between builds or
// processes: a fixed multiply-xorshift hash of each op (action,
// bandwidth, id length, id bytes eight at a time, the last eight
// overlapping), chained in op order. The ops hash independently, so the
// processor overlaps them; only the chaining is serial. It allocates
// nothing.
func opsSum(ops []signalling.TunnelOp) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := uint64(len(ops))
	for i := range ops {
		id := ops[i].SubFlowID
		v := uint64(ops[i].Bandwidth)<<1 ^ uint64(len(id))<<48
		if ops[i].Action == signalling.OpAlloc {
			v ^= 1
		}
		if len(id) < 8 {
			var w uint64
			for j := 0; j < len(id); j++ {
				w |= uint64(id[j]) << (8 * j)
			}
			v = (v ^ w) * k
		} else {
			for s := id; len(s) > 8; s = s[8:] {
				v = (v ^ le64(s)) * k
			}
			v = (v ^ le64(id[len(id)-8:])) * k
		}
		h = (h ^ v ^ v>>29) * k
	}
	return h ^ h>>29
}

// le64 reads s's first eight bytes as a little-endian word.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// inflight is the Seqs of the batches this end has sent on a tunnel and
// not seen settle, ascending. It is guarded by the endpoint's lock: only
// the closures BB.TunnelBatch hands to Endpoint.Batch touch it.
type inflight struct {
	seqs []int64
}

// send adds seq, minted under the lock and so above every Seq held, and
// returns what the batch acknowledges: everything below the lowest Seq
// still in flight.
func (f *inflight) send(seq int64) (acked int64) {
	f.seqs = append(f.seqs, seq)
	return f.seqs[0] - 1
}

// settled drops seq: its batch will never be sent again.
func (f *inflight) settled(seq int64) {
	if i, ok := slices.BinarySearch(f.seqs, seq); ok {
		f.seqs = slices.Delete(f.seqs, i, i+1)
	}
}
