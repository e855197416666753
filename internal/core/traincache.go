package core

import (
	"hash/fnv"
	"io"
	"math"
	"sync"

	"bolt/internal/mining"
	"bolt/internal/sim"
	"bolt/internal/workload"
)

// The experiment suite trains ~20 detectors per run, almost all on the same
// 120-spec catalog — on real hardware each training pass is hours of
// profiling, and even in simulation it dominates experiment start-up.
// TrainCached memoizes the training itself, the catalog's mining.Base (its
// SVD and SGD factorisation), on the identity of its inputs, so concurrent
// experiments factorise each catalog once. The Base memoizes its own views,
// one per recommender config, and a Detector is a view plus the caller's
// episode policy.

// trainCacheKey identifies one catalog's base. Specs are folded to an
// FNV-1a fingerprint of their identity-bearing fields (Label, Class, Base —
// the only fields Train reads); rank and seed are the completion's
// resolved Rank and its Seed, the only config a base is trained under.
type trainCacheKey struct {
	fingerprint uint64
	n           int
	rank        int
	seed        uint64
}

// trainCacheEntry carries a once so concurrent callers with the same key
// perform a single factorisation (singleflight) while callers with other
// keys proceed unblocked.
type trainCacheEntry struct {
	once sync.Once
	base *mining.Base
}

// trainCacheCap bounds the memo, in catalogs. A suite pass trains one, so
// the benchmark's four-seed cycle keeps all of its bases; a full memo is
// emptied before the new entry goes in. Dropping a base merely costs a
// retrain.
const trainCacheCap = 8

var trainCache = struct {
	sync.Mutex
	m map[trainCacheKey]*trainCacheEntry
}{m: make(map[trainCacheKey]*trainCacheEntry)}

func fingerprintSpecs(specs []workload.Spec) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, s := range specs {
		io.WriteString(h, s.Label)
		h.Write([]byte{0})
		io.WriteString(h, s.Class)
		h.Write([]byte{0})
		for _, v := range s.Base.Slice() {
			writeU64(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// cacheEntry returns the entry for key, adding an empty one if there is
// none.
func cacheEntry(key trainCacheKey) *trainCacheEntry {
	trainCache.Lock()
	defer trainCache.Unlock()
	e, ok := trainCache.m[key]
	if !ok {
		if len(trainCache.m) >= trainCacheCap {
			clear(trainCache.m)
		}
		e = &trainCacheEntry{}
		trainCache.m[key] = e
	}
	return e
}

// TrainCached is Train with the factorisation memoized on (specs identity,
// the completion's resolved Rank and Seed). It is safe for concurrent use:
// callers racing on a missing catalog block on a single factorisation
// rather than each training their own. Each call returns a Detector of its
// own, around the base's view for cfg.Recommender, which every config with
// that recommender shares.
//
// The view is shared — callers must treat it as read-only, which the
// Detector API already requires.
func TrainCached(specs []workload.Spec, cfg Config) *Detector {
	c := cfg.Recommender.Completion.WithDefaults(sim.NumResources)
	e := cacheEntry(trainCacheKey{fingerprint: fingerprintSpecs(specs), n: len(specs), rank: c.Rank, seed: c.Seed})
	e.once.Do(func() { e.base = mining.NewBase(labeledProfiles(specs), c) })
	return &Detector{Rec: e.base.View(cfg.Recommender), cfg: cfg.withDefaults()}
}
