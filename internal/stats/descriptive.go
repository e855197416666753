package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Percentile returns the p-th percentile (0-100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Counter tallies occurrences of string keys, used for building categorical
// PDFs (e.g. iterations-until-detection, app-type distributions).
type Counter struct {
	counts map[string]int
	total  int
}

// NewCounter returns an empty counter.
func NewCounter() *Counter {
	return &Counter{counts: make(map[string]int)}
}

// Add increments key by one.
func (c *Counter) Add(key string) { c.AddN(key, 1) }

// AddN increments key by n.
func (c *Counter) AddN(key string, n int) {
	c.counts[key] += n
	c.total += n
}

// Count returns the tally for key.
func (c *Counter) Count(key string) int { return c.counts[key] }

// Share returns key's fraction of the total in percent.
func (c *Counter) Share(key string) float64 {
	if c.total == 0 {
		return 0
	}
	return 100 * float64(c.counts[key]) / float64(c.total)
}

// Keys returns all keys in sorted order.
func (c *Counter) Keys() []string { return SortedKeys(c.counts) }

// SortedKeys returns m's keys in ascending order. Go randomises map
// iteration order on every run, so the deterministic packages visit a map
// only through its sorted keys; this is the one range over a map they
// contain (boltlint's detrand rejects any other).
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m { //bolt:nolint detrand -- the keys are sorted before they are returned, so the visit order never escapes
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
