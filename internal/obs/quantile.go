package obs

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// QHist is a lock-free log-linear quantile histogram (HDR style). The
// value range [Min, Max) is split into octaves (powers of two), each
// octave into 64 linear sub-buckets, so the relative half-width of any
// bucket is (2^(1/64)-1)/2 ≈ 0.55% — comfortably inside a 1% quantile
// error budget when quantiles report bucket midpoints.
//
// Observe is wait-free in the common case and never allocates: the
// bucket index is computed straight from the float64 bit pattern (the
// exponent field selects the octave, the top 6 mantissa bits the
// sub-bucket) and the counters are striped. A sync.Pool hands each P
// a private stripe, so concurrent observers on different CPUs touch
// different cache lines; stripes are merged only at exposition time.
//
// Out-of-range observations are clamped into [Min, Max] — both for
// bucketing and for the running sum, so a stray +Inf cannot poison
// _sum. NaN observations are dropped.
type QHist struct {
	name    string
	help    string
	minVal  float64 // lowest bucket boundary, a power of two
	maxVal  float64 // upper range bound, a power of two
	base    int     // (minExp+1023)<<subBucketBits, subtracted from the biased index
	n       int     // total bucket count: octaves * subBuckets
	stripes []*qstripe
	pool    sync.Pool
	next    atomic.Uint64 // round-robin stripe hand-out for pool misses
}

const (
	subBucketBits = 6
	subBuckets    = 1 << subBucketBits

	// quantileMin / quantileMax bound every histogram's latency range:
	// 2^-24 s ≈ 60ns up to 2^6 = 64s, 30 octaves * 64 = 1920 buckets
	// (15KiB of counters per stripe).
	quantileMin = 1.0 / (1 << 24)
	quantileMax = 64.0
)

// qstripe is one observer lane. The hot fields lead and the struct is
// its own allocation, so stripes don't share cache lines.
type qstripe struct {
	count   uint64
	sumBits uint64
	_       [6]uint64 // keep count/sumBits off neighbouring allocations' lines
	counts  []uint64
}

// NewQHist builds a detached histogram covering the latency range
// [quantileMin, quantileMax). Use Registry.Quantile to register one.
func NewQHist(name, help string) *QHist {
	minExp := math.Ilogb(quantileMin)
	maxExp := math.Ilogb(quantileMax)
	h := &QHist{
		name:   name,
		help:   help,
		minVal: quantileMin,
		maxVal: quantileMax,
		base:   (minExp + 1023) << subBucketBits,
		n:      (maxExp - minExp) * subBuckets,
	}
	ns := runtime.GOMAXPROCS(0)
	if ns > 16 {
		ns = 16
	}
	if ns < 1 {
		ns = 1
	}
	h.stripes = make([]*qstripe, ns)
	for i := range h.stripes {
		h.stripes[i] = &qstripe{counts: make([]uint64, h.n)}
	}
	// The pool gives each P a private stripe; on a miss (fresh P, or
	// the GC cleared the pool) New re-hands stripes round-robin. Two
	// Ps briefly sharing a stripe is harmless — counters are atomic —
	// it only costs a little cache-line traffic until Put re-settles.
	h.pool.New = func() any {
		return h.stripes[h.next.Add(1)%uint64(len(h.stripes))]
	}
	return h
}

// bucketIndex maps v (positive, non-NaN) to its bucket. The biased
// exponent and top mantissa bits of the float64 form a monotone
// integer, so the log-linear index is a shift and a subtract.
func (h *QHist) bucketIndex(v float64) int {
	if v < h.minVal { // also catches zero and negatives
		return 0
	}
	idx := int(math.Float64bits(v)>>(52-subBucketBits)) - h.base
	if idx >= h.n {
		return h.n - 1
	}
	return idx
}

// Observe records one value. Safe for any number of concurrent
// callers; never allocates; never blocks on a mutex.
func (h *QHist) Observe(v float64) {
	if h == nil {
		return
	}
	if v != v { // NaN would poison the sum forever
		return
	}
	cv := v
	if cv < h.minVal {
		cv = h.minVal
	} else if cv > h.maxVal {
		cv = h.maxVal
	}
	sp := h.pool.Get().(*qstripe)
	atomic.AddUint64(&sp.counts[h.bucketIndex(v)], 1)
	atomic.AddUint64(&sp.count, 1)
	for {
		old := atomic.LoadUint64(&sp.sumBits)
		upd := math.Float64bits(math.Float64frombits(old) + cv)
		if atomic.CompareAndSwapUint64(&sp.sumBits, old, upd) {
			break
		}
	}
	h.pool.Put(sp)
}

// ObserveSince records the elapsed time since t0, in seconds.
func (h *QHist) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// merged folds all stripes into one bucket array. Concurrent
// observers may land either side of the fold; the result is a
// consistent-enough snapshot for exposition.
func (h *QHist) merged() (counts []uint64, count uint64, sum float64) {
	counts = make([]uint64, h.n)
	for _, sp := range h.stripes {
		for i := range counts {
			counts[i] += atomic.LoadUint64(&sp.counts[i])
		}
		count += atomic.LoadUint64(&sp.count)
		sum += math.Float64frombits(atomic.LoadUint64(&sp.sumBits))
	}
	return counts, count, sum
}

// bound returns the lower boundary of bucket i (bound(n) == maxVal).
func (h *QHist) bound(i int) float64 {
	exp := i >> subBucketBits
	sub := i & (subBuckets - 1)
	return math.Ldexp(1+float64(sub)/subBuckets, exp) * h.minVal
}

// mid returns the midpoint of bucket i, the value quantiles report.
func (h *QHist) mid(i int) float64 {
	return (h.bound(i) + h.bound(i+1)) / 2
}

func quantileOf(h *QHist, counts []uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= target {
			return h.mid(i)
		}
	}
	return h.mid(h.n - 1)
}

// Count returns the total number of observations.
func (h *QHist) Count() uint64 {
	if h == nil {
		return 0
	}
	var count uint64
	for _, sp := range h.stripes {
		count += atomic.LoadUint64(&sp.count)
	}
	return count
}

// Sum returns the (range-clamped) sum of observations.
func (h *QHist) Sum() float64 {
	if h == nil {
		return 0
	}
	var sum float64
	for _, sp := range h.stripes {
		sum += math.Float64frombits(atomic.LoadUint64(&sp.sumBits))
	}
	return sum
}

// QuantileSnapshot is one histogram's percentile report, the shape
// experiment tables print and a TopSnapshot carries.
type QuantileSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// snapshot folds the stripes once and reads every percentile off the
// same merged array.
func (h *QHist) snapshot() QuantileSnapshot {
	counts, count, sum := h.merged()
	return QuantileSnapshot{
		Count: count,
		Sum:   sum,
		P50:   quantileOf(h, counts, count, 0.5),
		P90:   quantileOf(h, counts, count, 0.9),
		P99:   quantileOf(h, counts, count, 0.99),
		P999:  quantileOf(h, counts, count, 0.999),
	}
}

// expose writes the histogram as a Prometheus summary: explicit
// quantile lines beat exporting 1920 buckets, and the scrape cost
// stays flat no matter how fine the internal resolution gets.
func (h *QHist) expose(w io.Writer) {
	writeHeader(w, h.name, h.help, "summary")
	counts, count, sum := h.merged()
	for _, q := range [...]float64{0.5, 0.99, 0.999} {
		fmt.Fprintf(w, "%s{quantile=%q} %s\n", h.name, formatFloat(q), formatFloat(quantileOf(h, counts, count, q)))
	}
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(sum))
	fmt.Fprintf(w, "%s_count %d\n", h.name, count)
}

// Quantile registers a striped quantile histogram covering the latency
// range 60ns..64s. Returns a usable no-op histogram when the registry
// is nil.
func (r *Registry) Quantile(name, help string) *QHist {
	if r == nil {
		return nil
	}
	h := NewQHist(name, help)
	r.register(name, help, h)
	return h
}

// Quantiles reports every registered QHist keyed by metric name —
// the snapshot experiment reports and TopSnapshot consume.
func (r *Registry) Quantiles() map[string]QuantileSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]QuantileSnapshot)
	for name, m := range r.byName {
		if h, ok := m.(*QHist); ok {
			out[name] = h.snapshot()
		}
	}
	return out
}
