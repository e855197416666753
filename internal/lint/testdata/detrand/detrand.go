// Test fixture for the detrand analyzer, type-checked under the package
// path bolt/internal/sim so the deterministic-package gate applies.
package sim

import (
	"math/rand" // want `deterministic package imports math/rand`
	"os"
	"time"
)

var sink float64

func ambient() {
	sink = rand.Float64()
	_ = time.Now()        // want `time.Now \(wall-clock read\)`
	_ = os.Getenv("HOME") // want `os.Getenv \(environment read\)`
}

func envBranch() int {
	if v, ok := os.LookupEnv("BOLT_FAST"); ok && v != "" { // want `os.LookupEnv \(environment read\)`
		return 1
	}
	return 0
}

// durationsOK: the time package itself is fine; only clock reads are not.
func durationsOK(d time.Duration) time.Duration {
	return 2 * d
}

func timedSuppressed() {
	start := time.Now() //bolt:nolint detrand -- wall-clock timing is reported to stderr only, never folded into results
	_ = start
}

type weights map[string]float64

// mapSum: float addition does not associate, so the total depends on the
// visit order, which Go randomises on every run.
func mapSum(w weights) float64 {
	total := 0.0
	for _, v := range w { // want `range over a map in deterministic package bolt/internal/sim`
		total += v
	}
	return total
}

// mapCount is order-free, but the construct is forbidden outright: the
// rule asks what is ranged over, not what the body does with it.
func mapCount(m map[int]bool) int {
	n := 0
	for range m { // want `range over a map`
		n++
	}
	return n
}

// sortedSumOK visits the map through a sorted key slice.
func sortedSumOK(w weights, sorted []string) float64 {
	total := 0.0
	for _, k := range sorted {
		total += w[k]
	}
	return total
}
