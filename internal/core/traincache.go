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
// TrainCached memoizes Train on the identity of its inputs so concurrent
// experiments share what they can, which is safe because a Detector, a
// mining.Recommender and a mining.Base are immutable once built (see the
// Detector doc comment). The memo has three levels:
//   - the base (mining.Base): the catalog's SVD and SGD factorisation, all
//     the training there is, keyed on the catalog and the completion's
//     resolved Rank and Seed;
//   - the recommender: a view of the base, shared by every Config that
//     differs only in episode-policy fields;
//   - the Detector each such Config gets around that recommender.

// cacheLevel says which level of the memo an entry belongs to.
type cacheLevel uint8

const (
	levelDetector cacheLevel = iota
	levelRecommender
	levelBase
)

// trainCacheKey identifies one cache entry. Specs are folded to an FNV-1a
// fingerprint of their identity-bearing fields (Label, Class, Base — the
// only fields Train reads). The config is resolved through cacheConfig, so
// an explicit Config{MaxIterations: 6} and the zero Config share an entry.
// A recommender entry keys on the resolved Recommender config alone, a base
// entry on its Completion's Rank and Seed alone.
type trainCacheKey struct {
	fingerprint uint64
	n           int
	cfg         Config
	level       cacheLevel
}

// trainCacheEntry carries a once so concurrent callers with the same key
// perform a single training pass (singleflight) while callers with other
// keys proceed unblocked. A detector entry sets det, a recommender entry
// rec, a base entry base.
type trainCacheEntry struct {
	once sync.Once
	det  *Detector
	rec  *mining.Recommender
	base *mining.Base
}

// trainCacheCap bounds the memo, all levels together. A suite pass adds
// 22 entries (14 detectors, 7 recommenders, 1 base), so cycling four seeds
// adds 66 more after a seed's last entry before that seed recurs: every
// entry is evicted before it could be reused, and the memo shares training
// within a pass only. Dropping an entry merely costs a retrain.
const trainCacheCap = 64

var trainCache = struct {
	sync.Mutex
	m     map[trainCacheKey]*trainCacheEntry
	order []trainCacheKey // the keys of m, oldest first
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

// cacheConfig resolves the defaults that make two configs train the same
// detector: withDefaults, the completion's default Rank, and an
// EnergyFraction of 0, which the recommender reads as
// mining.DefaultEnergyFraction.
func cacheConfig(cfg Config) Config {
	cfg = cfg.withDefaults()
	cfg.Recommender.Completion = cfg.Recommender.Completion.WithDefaults(sim.NumResources)
	if cfg.Recommender.EnergyFraction == 0 {
		cfg.Recommender.EnergyFraction = mining.DefaultEnergyFraction
	}
	return cfg
}

// cacheEntry returns the entry for key, adding an empty one if there is
// none. A full cache drops its oldest entry, so an entry outlives the next
// trainCacheCap−1 additions: a detector entry is not evicted by the
// recommender and base entries its own training adds, and callers racing
// on a few keys all find the entry the first of them added.
func cacheEntry(key trainCacheKey) *trainCacheEntry {
	trainCache.Lock()
	defer trainCache.Unlock()
	if e, ok := trainCache.m[key]; ok {
		return e
	}
	if len(trainCache.order) >= trainCacheCap {
		delete(trainCache.m, trainCache.order[0])
		trainCache.order = trainCache.order[1:]
	}
	e := &trainCacheEntry{}
	trainCache.m[key] = e
	trainCache.order = append(trainCache.order, key)
	return e
}

// TrainCached is Train memoized on (specs identity, resolved config). It
// returns the same *Detector for repeated calls with equivalent inputs, and
// is safe for concurrent use: callers racing on a missing entry block on a
// single training pass rather than each training their own. Configs that
// differ only in MaxIterations, ExtraBench, DisableShutter or DisableMRC
// get Detectors of their own that share one *mining.Recommender, so its
// per-mask plans are built once for all of them; every recommender on one
// catalog, Rank and Seed is a view of one *mining.Base.
//
// The returned Detector is shared — callers must treat it as read-only,
// which the Detector API already requires.
func TrainCached(specs []workload.Spec, cfg Config) *Detector {
	fp, n := fingerprintSpecs(specs), len(specs)
	cfg = cacheConfig(cfg)
	e := cacheEntry(trainCacheKey{fingerprint: fp, n: n, cfg: cfg})
	e.once.Do(func() {
		re := cacheEntry(trainCacheKey{fingerprint: fp, n: n, cfg: Config{Recommender: cfg.Recommender}, level: levelRecommender})
		re.once.Do(func() {
			c := cfg.Recommender.Completion
			var bcfg Config
			bcfg.Recommender.Completion = mining.CompletionConfig{Rank: c.Rank, Seed: c.Seed}
			be := cacheEntry(trainCacheKey{fingerprint: fp, n: n, cfg: bcfg, level: levelBase})
			be.once.Do(func() { be.base = mining.NewBase(labeledProfiles(specs), c) })
			re.rec = be.base.View(cfg.Recommender)
		})
		e.det = newDetector(specs, cfg, re.rec)
	})
	return e.det
}
