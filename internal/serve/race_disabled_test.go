//go:build !race

package serve

// raceEnabled reports that the binary was built with -race; see the race
// build-tag twin for why the alloc-budget tests care.
const raceEnabled = false
