package main

import "testing"

// TestCheckFlags: a configuration of no requests, whose latency quantiles
// would be empty, or a negative queue depth is refused before training.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct{ requests, queue int }{{0, 0}, {-1, 0}, {1, -1}} {
		if checkFlags(c.requests, c.queue) == nil {
			t.Errorf("-requests %d -queue %d accepted", c.requests, c.queue)
		}
	}
	if err := checkFlags(1, 0); err != nil {
		t.Errorf("-requests 1 -queue 0 refused: %v", err)
	}
}
