// Test fixture: a //bolt:nolint without the mandatory `-- reason`, or one
// naming no real analyzer, suppresses nothing and is itself reported.
package nolintreason

import "bolt/internal/stats"

func missingReason(seeds []uint64) float64 {
	total := 0.0
	for _, s := range seeds {
		r := stats.NewRNG(s) //bolt:nolint rngstream  // want `stats.NewRNG inside a loop` `requires a reason`
		total += r.Float64()
	}
	return total
}

// misspelled names an analyzer that does not exist: the comment can match
// no diagnostic and could never be judged unused, so it is reported rather
// than left silently inert (a leftover `hotcall` after that analyzer was
// folded into hotalloc is the motivating case).
func misspelled(seeds []uint64) float64 {
	total := 0.0
	for _, s := range seeds {
		r := stats.NewRNG(s) //bolt:nolint rngstrem -- fixture: typo in the analyzer name // want `stats.NewRNG inside a loop` `unknown analyzer "rngstrem"`
		total += r.Float64()
	}
	return total
}
