// Test fixture: a //bolt:nolint without the mandatory `-- reason`, or one
// naming no real analyzer, suppresses nothing and is itself reported.
// Checked under a deterministic package path so detrand is active.
package nolintreason

import "time"

func missingReason() int64 {
	start := time.Now() //bolt:nolint detrand  // want `time.Now \(wall-clock read\)` `requires a reason`
	return start.UnixNano()
}

// misspelled names an analyzer that does not exist: the comment can match
// no diagnostic and could never be judged unused, so it is reported rather
// than left silently inert (a leftover `hotcall` after that analyzer was
// folded into hotalloc is the motivating case).
func misspelled() int64 {
	start := time.Now() //bolt:nolint rngstrem -- fixture: typo in the analyzer name // want `time.Now \(wall-clock read\)` `unknown analyzer "rngstrem"`
	return start.UnixNano()
}
