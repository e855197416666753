// Package stats provides the deterministic random number generator and
// descriptive statistics used throughout the Bolt reproduction.
//
// Every experiment in the repository is seeded, so results are exactly
// reproducible run to run. The generator is a splitmix64 core feeding a
// xoshiro256** state, both public-domain algorithms, implemented here so the
// repository depends only on the standard library and produces identical
// streams on every platform.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator. The zero value is
// not ready for use; construct one with NewRNG. RNG is not safe for
// concurrent use; derive per-goroutine generators with Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, so that nearby
// seeds still produce uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed)
	return r
}

// seed sets r's state from x via splitmix64.
func (r *RNG) seed(x uint64) {
	sm := x
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split derives an independent generator from r, advancing r once. Use it to
// hand uncorrelated streams to sub-components without sharing state.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// SplitN derives the n generators that n calls of Split would, advancing r
// exactly n draws. It is the pre-split step of the repository's
// parallelism discipline: a caller about to fan work out over a pool splits
// one stream per unit *serially, in unit order, up front*, then hands
// stream i to unit i — so the streams each unit consumes are identical at
// every worker count and the merged output stays byte-identical. The n
// generators live in one slab, so the split costs two allocations however
// large n is.
func (r *RNG) SplitN(n int) []*RNG {
	slab := make([]RNG, n)
	out := make([]*RNG, n)
	for i := range out {
		slab[i].seed(r.Uint64())
		out[i] = &slab[i]
	}
	return out
}

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
//
//bolt:hotpath
func (r *RNG) Uint64() uint64 {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
//
//bolt:hotpath
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
//
// Sampling uses Lemire's nearly-divisionless rejection method rather than
// Uint64() % n: the modulo maps 2^64 inputs onto n buckets, so unless n
// divides 2^64 the low (2^64 mod n) values occur once more often than the
// rest — a bias that, while tiny for small n, systematically skews every
// permutation, weighted choice, and placement decision built on top of it.
//
//bolt:hotpath
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		// Reject the first (2^64 mod n) values of lo so every bucket of hi
		// receives exactly the same number of inputs.
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, using the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)) in place. It
// resets p to the identity before shuffling, so the result — and the random
// stream consumed — are exactly those of Perm(len(p)); callers on a hot path
// reuse one buffer across calls without changing any downstream values.
//
//bolt:hotpath
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Choose returns a uniformly random index weighted by the non-negative
// weights. If all weights are zero it returns a uniform index. It panics on
// an empty slice.
func (r *RNG) Choose(weights []float64) int {
	if len(weights) == 0 {
		panic("stats: Choose with empty weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
