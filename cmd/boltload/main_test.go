package main

import (
	"math"
	"testing"
)

// TestCheckFlags: a configuration of no requests, whose latency quantiles
// would be empty, a negative queue depth, or a fault rate outside [0, 1]
// or NaN is refused before training; the edges of each range are
// accepted.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		requests, queue int
		faultrate       float64
		ok              bool
	}{
		{1, 0, 0, true},
		{65536, 8, 1, true},
		{0, 0, 0, false},
		{-1, 0, 0, false},
		{1, -1, 0, false},
		{1, 0, -0.1, false},
		{1, 0, 1.5, false},
		{1, 0, math.NaN(), false},
	} {
		err := checkFlags(c.requests, c.queue, c.faultrate)
		if (err == nil) != c.ok {
			t.Errorf("-requests %d -queue %d -faultrate %v: error %v, want accepted=%v", c.requests, c.queue, c.faultrate, err, c.ok)
		}
	}
}
