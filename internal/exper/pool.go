package exper

import (
	"runtime"
	"sync/atomic"

	"bolt/internal/par"
)

// episodeWorkers is the width of the intra-experiment episode pool;
// 0 means GOMAXPROCS. It is process-global because it is a pure
// throughput knob: every episode draws from its own pre-split stats.RNG
// stream and results merge in input order, so the rendered output is
// byte-identical at every width. The deterministic-suite contract forbids
// flipping it mid-run: not because results would change, but so a run's
// recorded configuration stays meaningful.
var episodeWorkers atomic.Int32

// SetEpisodeWorkers fixes how many episodes may run concurrently inside
// one experiment (the boltbench -epworkers knob). n <= 0 restores the
// default (GOMAXPROCS at use time).
func SetEpisodeWorkers(n int) {
	if n < 0 {
		n = 0
	}
	episodeWorkers.Store(int32(n))
}

// EpisodeWorkers returns the current episode pool width.
func EpisodeWorkers() int {
	if n := int(episodeWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// forEachEpisode runs body(i) for every i in [0, n) on the episode worker
// pool. It is the intra-experiment counterpart of Run: the caller splits
// one RNG stream per episode serially up front, bodies consume only their
// own stream and write into their own result slot, and the caller merges
// slots in input order afterwards — so output bytes are identical at every
// pool width. Concurrent bodies must touch disjoint servers/VMs (episodes
// on different hosts, or trials on private servers); shared detectors are
// safe by their immutability contract. A body panic is re-raised on the
// caller as a *par.WorkerPanic (see par.FanOut).
func forEachEpisode(n int, body func(int)) {
	par.FanOut(n, EpisodeWorkers(), nil, body)
}
