//go:build race

package serve

// raceEnabled reports that the binary was built with -race. Under the race
// detector sync.Pool deliberately drops a fraction of pooled items, so
// allocation counts are inflated by design and the alloc-budget tests skip
// themselves.
const raceEnabled = true
