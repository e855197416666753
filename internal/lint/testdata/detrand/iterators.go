package sim

import (
	"maps"
	"slices"
)

// collectKeys compiles at go1.22, which cannot range over an iterator, and
// still returns the keys in the map's random order.
func collectKeys(w weights) []string {
	return slices.Collect(maps.Keys(w)) // want `maps.Keys \(map iteration order\)`
}
