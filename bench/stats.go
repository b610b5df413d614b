package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported as supported: a tail read off fewer points is one
// outlier's opinion.
const minBeyond = 10

// percentile returns the q-quantile (0 <= q <= 1) of sorted by linear
// interpolation between closest ranks. It returns 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := min(max(q, 0), 1) * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 == len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// supported reports whether n samples leave at least minBeyond of them
// beyond the q-quantile.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond
}

// median returns the middle value of vals (mean of the two middle
// values for an even count); vals is not modified.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// percentileMS is the q-quantile of samples, in milliseconds.
func percentileMS(samples []time.Duration, q float64) float64 {
	all := make([]float64, len(samples))
	for i, d := range samples {
		all[i] = ms(d)
	}
	sort.Float64s(all)
	return percentile(all, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quartileSpread is the distance between the first and third quartile
// of vals as a share of their median, with the quartiles Python's
// statistics.quantiles(vals, n=4) gives (exclusive method) — the
// spread the acceptance rule is written in. It needs two values.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := percentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
