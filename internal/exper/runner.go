package exper

import (
	"runtime"
	"time"

	"bolt/internal/par"
)

// RunResult is one experiment's finished output.
type RunResult struct {
	Experiment Experiment
	Report     *Report
	Elapsed    time.Duration
}

// Run executes the experiments with at most parallel of them in flight at
// once and returns their results in input order. parallel <= 0 means
// GOMAXPROCS.
//
// Each experiment is a pure function of the seed — it builds its own RNGs
// and (via core.TrainCached) shares read-only trained recommenders, views
// of one factorisation of the seed's catalog — so the
// results are identical at every parallelism level: running with
// parallel=8 and parallel=1 yields byte-for-byte the same rendered
// reports. Only the wall-clock interleaving differs, which is why Elapsed
// is the sole field a caller must not compare across runs.
//
// A panic inside an experiment does not take the process down with a bare
// worker-goroutine trace: par.FanOut recovers it, lets the other experiments
// finish, and re-raises it on the caller's goroutine as a *par.WorkerPanic
// naming the experiment — so the caller's defers (boltbench's profile
// writers in particular) still run.
func Run(exps []Experiment, seed uint64, parallel int) []RunResult {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	results := make([]RunResult, len(exps))
	par.FanOut(len(exps), parallel,
		func(i int) string { return "experiment " + exps[i].ID },
		func(i int) {
			start := time.Now() //bolt:nolint detrand -- Elapsed is diagnostic-only and documented as never compared across runs; no report bytes derive from it
			rep := exps[i].Run(seed)
			results[i] = RunResult{Experiment: exps[i], Report: rep, Elapsed: time.Since(start)} //bolt:nolint detrand -- same: wall-clock feeds only the Elapsed diagnostic field
		})
	return results
}
