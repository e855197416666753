package core_test

import (
	"sync"
	"testing"

	"bolt/internal/core"
	"bolt/internal/mining"
	"bolt/internal/workload"
)

// TestTrainCachedConcurrentSingleflight hammers cache keys from many
// goroutines: every caller of one key must get the identical *Detector (one
// training pass, not a race of redundant ones), callers of policy-only
// variants, racing each other, must all get Detectors around one
// *mining.Recommender, and callers of recommender variants must all get
// views of one *mining.Base; under -race the cache's locking must hold up
// at all three levels. This is the access pattern of the experiment suite,
// whose experiments train their variants of one catalog concurrently.
func TestTrainCachedConcurrentSingleflight(t *testing.T) {
	specs := workload.TrainingSpecs(1001) // a seed no other test primes
	policies := []core.Config{{}, {ExtraBench: 2}, {DisableShutter: true}, {MaxIterations: 3, DisableMRC: true}}
	recommenders := []core.Config{
		{Recommender: mining.RecommenderConfig{Unweighted: true}},
		{Recommender: mining.RecommenderConfig{PureCF: true}},
		{Recommender: mining.RecommenderConfig{EnergyFraction: 0.5}},
		{Recommender: mining.RecommenderConfig{Completion: mining.CompletionConfig{FixedFoldIn: true}}},
	}
	cfgs := append(policies, recommenders...)
	const callers = 32
	dets := make([]*core.Detector, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			dets[i] = core.TrainCached(specs, cfgs[i%len(cfgs)])
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if same := i % len(cfgs); dets[i] != dets[same] {
			t.Fatalf("caller %d got a different detector pointer than caller %d: singleflight broken", i, same)
		}
		policyOnly := i%len(cfgs) < len(policies)
		if sameRec := dets[i].Rec == dets[0].Rec; sameRec != policyOnly {
			t.Fatalf("caller %d (config %+v) shares the zero config's recommender: %v, want %v", i, cfgs[i%len(cfgs)], sameRec, policyOnly)
		}
		if dets[i].Rec.Base() != dets[0].Rec.Base() {
			t.Fatalf("caller %d (config %+v) got a base of its own; one catalog, Rank and Seed share one", i, cfgs[i%len(cfgs)])
		}
	}
	for i := 1; i < len(cfgs); i++ {
		if dets[i] == dets[0] {
			t.Fatalf("config %+v shares the zero config's Detector; it needs its own policy", cfgs[i])
		}
	}
}

// TestTrainCachedDefaultsResolvedKey: the cache key resolves the config
// through withDefaults, so the zero Config and an explicitly spelled-out
// default config share one entry — concurrently, too.
func TestTrainCachedDefaultsResolvedKey(t *testing.T) {
	specs := workload.TrainingSpecs(1002)
	cfgs := []core.Config{
		{},
		{MaxIterations: 6},
	}
	dets := make([]*core.Detector, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg core.Config) {
			defer wg.Done()
			dets[i] = core.TrainCached(specs, cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i := 1; i < len(dets); i++ {
		if dets[i] != dets[0] {
			t.Fatalf("config %d resolved to a different cache entry than the zero config", i)
		}
	}
}

// TestTrainCachedEvictionHammer drives the cache far past its capacity from
// concurrent callers with many distinct small keys, so eviction races
// against singleflight misses. Correctness here is "no race, no panic, and
// every caller gets a detector trained on its own specs" — pointer identity
// across calls is not guaranteed once eviction starts.
func TestTrainCachedEvictionHammer(t *testing.T) {
	// Small spec sets keep each training pass cheap; 96 distinct keys
	// overflow the 64-entry cap with churn to spare.
	const keys, callers = 96, 4
	specSets := make([][]workload.Spec, keys)
	for k := range specSets {
		specSets[k] = workload.TrainingSpecs(uint64(2000 + k))[:6]
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				// Stagger start points so callers collide on different keys.
				specs := specSets[(k+c*keys/callers)%keys]
				det := core.TrainCached(specs, core.Config{})
				if det == nil {
					t.Error("TrainCached returned nil")
					return
				}
				if got := len(det.Profiles()); got != len(specs) {
					t.Errorf("detector trained on %d specs, want %d", got, len(specs))
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
