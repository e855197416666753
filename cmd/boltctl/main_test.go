package main

import (
	"strings"
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
// result to print, an adversary of no vCPUs, or a victim class boltctl
// cannot build is refused before training; the refusal names the bad value.
func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		iters, advVCPUs int
		victims         []string
		want            string // "" accepts; otherwise a substring of the error
	}{
		{0, 4, []string{"memcached"}, "-iters 0"},
		{-1, 4, []string{"memcached"}, "-iters -1"},
		{6, 0, []string{"memcached"}, "-adv-vcpus 0"},
		{6, -2, []string{"memcached"}, "-adv-vcpus -2"},
		{6, 4, []string{"bogus"}, `"bogus"`},
		{6, 4, []string{"memcached", "spak"}, `"spak"`},
		{6, 4, []string{""}, `""`},
		{1, 1, []string{"memcached"}, ""},
		{6, 4, []string{"sql", "speccpu", "random", "spark"}, ""},
	} {
		err := checkFlags(c.iters, c.advVCPUs, c.victims)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("-iters %d -adv-vcpus %d -victims %v refused: %v", c.iters, c.advVCPUs, c.victims, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("-iters %d -adv-vcpus %d -victims %v: error %v, want one naming %s", c.iters, c.advVCPUs, c.victims, err, c.want)
		}
	}
}
