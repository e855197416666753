package main

import (
	"testing"

	"bolt/internal/mining"
)

// TestShownMatchesWithinMatchesKept: boltctl cannot print more matches than
// Detect keeps.
func TestShownMatchesWithinMatchesKept(t *testing.T) {
	if shownMatches > mining.MatchesKept {
		t.Fatalf("boltctl prints %d matches, Detect keeps %d", shownMatches, mining.MatchesKept)
	}
}

// TestCheckFlags: a run with no detection iterations, which would leave no
// result to print, or an adversary of no vCPUs is refused before training.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct{ iters, advVCPUs int }{{0, 4}, {-1, 4}, {6, 0}, {6, -2}} {
		if checkFlags(c.iters, c.advVCPUs) == nil {
			t.Errorf("-iters %d -adv-vcpus %d accepted", c.iters, c.advVCPUs)
		}
	}
	if err := checkFlags(1, 1); err != nil {
		t.Errorf("-iters 1 -adv-vcpus 1 refused: %v", err)
	}
}
