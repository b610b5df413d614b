package experiment

import "time"

// rng is a splitmix64 stream: a tiny, fast, statistically decent PRNG
// whose whole state is one uint64. The scenario fleet gives every
// (seed, stream) pair its own independent generator — per-user
// behaviour streams never interleave, so adding users or reordering
// events cannot perturb another user's draws. Nothing here reads the
// date or any other ambient source; identical seeds give identical
// runs.
type rng struct{ state uint64 }

// newRNG derives an independent stream from a seed. The stream id is
// folded in through one splitmix64 round so that streams 0, 1, 2…
// start far apart even for adjacent seeds.
func newRNG(seed, stream uint64) *rng {
	r := &rng{state: seed ^ mix64(stream+0x9E3779B97F4A7C15)}
	r.Uint64() // discard the first output to decorrelate trivial seeds
	return r
}

// mix64 is the splitmix64 output function.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 advances the stream.
func (r *rng) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	return mix64(r.state)
}

// Float64 returns a uniform draw in [0, 1).
func (r *rng) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Between returns a uniform duration in [lo, hi).
func (r *rng) Between(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.Uint64()%uint64(hi-lo))
}
