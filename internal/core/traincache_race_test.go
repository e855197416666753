package core_test

import (
	"sync"
	"testing"

	"bolt/internal/core"
	"bolt/internal/mining"
	"bolt/internal/workload"
)

// TestTrainCachedConcurrentSingleflight: every config on one catalog with
// one resolved Rank and Seed gets a view of one *mining.Base, factorised
// once however many callers race for it, and another catalog, spec count,
// Rank or Seed gets a base of its own. Under -race the memo's locking must
// hold up. This is the suite's access pattern: its experiments train their
// variants of one catalog concurrently.
func TestTrainCachedConcurrentSingleflight(t *testing.T) {
	specs := workload.TrainingSpecs(1001) // a seed no other test primes
	cfgs := []core.Config{
		{}, {MaxIterations: 6}, {ExtraBench: 2}, {DisableShutter: true, DisableMRC: true},
		{Recommender: mining.RecommenderConfig{Unweighted: true}},
		{Recommender: mining.RecommenderConfig{PureCF: true}},
		{Recommender: mining.RecommenderConfig{EnergyFraction: 0.5}},
		{Recommender: mining.RecommenderConfig{Completion: mining.CompletionConfig{Rank: 6, FixedFoldIn: true}}},
	}
	const callers = 32
	bases := make([]*mining.Base, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range bases {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Odd callers rebuild the spec slice: identity is the content
			// fingerprint, not the slice header.
			s := specs
			if i%2 == 1 {
				s = workload.TrainingSpecs(1001)
			}
			<-start
			bases[i] = core.TrainCached(s, cfgs[i%len(cfgs)]).Rec.Base()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, b := range bases {
		if b != bases[0] {
			t.Fatalf("caller %d (config %+v) got a base of its own: singleflight broken", i, cfgs[i%len(cfgs)])
		}
	}
	for name, specs := range map[string][]workload.Spec{"another catalog": workload.TrainingSpecs(1002), "one spec fewer": specs[1:]} {
		if core.TrainCached(specs, core.Config{}).Rec.Base() == bases[0] {
			t.Errorf("%s shares the catalog's base", name)
		}
	}
	for _, c := range []mining.CompletionConfig{{Seed: 1}, {Rank: 4}} {
		if core.TrainCached(specs, core.Config{Recommender: mining.RecommenderConfig{Completion: c}}).Rec.Base() == bases[0] {
			t.Errorf("completion %+v shares the default's base", c)
		}
	}
}

// TestTrainCachedDefaultsResolvedKey: the memo and the views resolve the
// config's defaults, so the zero Config and the spelled-out defaults — Rank
// 6, EnergyFraction 0.9, alone or beside MaxIterations 6 — racing each
// other get detectors around one recommender.
func TestTrainCachedDefaultsResolvedKey(t *testing.T) {
	specs := workload.TrainingSpecs(1003) // a seed no other test primes
	cfgs := []core.Config{
		{},
		{MaxIterations: 6},
		{Recommender: mining.RecommenderConfig{Completion: mining.CompletionConfig{Rank: 6}}},
		{Recommender: mining.RecommenderConfig{EnergyFraction: 0.9}},
		{MaxIterations: 6, Recommender: mining.RecommenderConfig{EnergyFraction: 0.9, Completion: mining.CompletionConfig{Rank: 6}}},
	}
	dets := make([]*core.Detector, len(cfgs))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, cfg := range cfgs {
		wg.Add(1)
		go func(i int, cfg core.Config) {
			defer wg.Done()
			<-start
			dets[i] = core.TrainCached(specs, cfg)
		}(i, cfg)
	}
	close(start)
	wg.Wait()
	for i, d := range dets {
		if d.Rec != dets[0].Rec {
			t.Fatalf("config %+v resolved to another recommender than the zero config", cfgs[i])
		}
	}
}
