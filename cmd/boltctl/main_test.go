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
