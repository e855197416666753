package core

import (
	"sync"
	"testing"

	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

func TestTrainCachedReturnsSameDetector(t *testing.T) {
	specs := workload.TrainingSpecs(400)
	a := TrainCached(specs, Config{})
	b := TrainCached(specs, Config{})
	if a != b {
		t.Fatal("identical specs+config should share one detector")
	}
	// The zero config and its resolved form are the same training run.
	c := TrainCached(specs, Config{MaxIterations: 6})
	if a != c {
		t.Fatal("explicitly defaulted config should hit the zero-config entry")
	}
	// Rebuilding the spec slice must not defeat the cache: identity is the
	// content fingerprint, not the slice header.
	d := TrainCached(workload.TrainingSpecs(400), Config{})
	if a != d {
		t.Fatal("equal spec content should hit the cache")
	}
}

func TestTrainCachedDistinguishesInputs(t *testing.T) {
	specs := workload.TrainingSpecs(401)
	base := TrainCached(specs, Config{})
	if other := TrainCached(workload.TrainingSpecs(402), Config{}); other == base {
		t.Fatal("different training seed must not share a detector")
	}
	if other := TrainCached(specs, Config{DisableShutter: true}); other == base {
		t.Fatal("different config must not share a detector")
	}
	if other := TrainCached(specs[:len(specs)-1], Config{}); other == base {
		t.Fatal("different spec count must not share a detector")
	}
}

func TestTrainCachedMatchesTrain(t *testing.T) {
	specs := workload.TrainingSpecs(403)
	cached := TrainCached(specs, Config{})
	fresh := Train(specs, Config{})
	cp, fp := cached.Profiles(), fresh.Profiles()
	if len(cp) != len(fp) {
		t.Fatalf("cached detector has %d profiles, fresh has %d", len(cp), len(fp))
	}
	for i := range cp {
		if cp[i].Label != fp[i].Label {
			t.Fatalf("profile %d label %q vs %q", i, cp[i].Label, fp[i].Label)
		}
	}
}

// TestTrainCachedConcurrent hammers one key from many goroutines: all must
// observe the same detector, and (under -race) the single training pass must
// not race with concurrent lookups.
func TestTrainCachedConcurrent(t *testing.T) {
	specs := workload.TrainingSpecs(404)
	const goroutines = 16
	dets := make([]*Detector, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dets[i] = TrainCached(specs, Config{})
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if dets[i] != dets[0] {
			t.Fatalf("goroutine %d got a different detector", i)
		}
	}
}

func TestTrainCachedBounded(t *testing.T) {
	specs := workload.TrainingSpecs(405)
	// Distinct configs force distinct entries well past the cap.
	for i := 0; i < trainCacheCap+8; i++ {
		TrainCached(specs[:4], Config{ExtraBench: i + 1})
	}
	trainCache.Lock()
	n := len(trainCache.m)
	trainCache.Unlock()
	if n > trainCacheCap {
		t.Fatalf("cache grew to %d entries, cap is %d", n, trainCacheCap)
	}
	// On a full cache a new key adds three entries, its detector's, its
	// recommender's and its base's; the later ones must not evict the first.
	fresh := TrainCached(workload.TrainingSpecs(407)[:4], Config{})
	if again := TrainCached(workload.TrainingSpecs(407)[:4], Config{}); again != fresh {
		t.Fatal("a full cache dropped the entry it had just added")
	}
}

// TestTrainCachedSharesRecommender: configs that differ only in
// episode-policy fields get Detectors of their own around one shared
// recommender, EnergyFraction 0 and its resolved 0.9 are one entry, and
// every field the recommender reads keeps its own. Each Detector still
// runs its own policy.
func TestTrainCachedSharesRecommender(t *testing.T) {
	specs := workload.TrainingSpecs(406)
	base := TrainCached(specs, Config{})
	if resolved := TrainCached(specs, Config{Recommender: mining.RecommenderConfig{EnergyFraction: 0.9}}); resolved != base {
		t.Fatal("EnergyFraction 0.9 should hit the zero-config entry")
	}
	shared := map[string]Config{
		"MaxIterations":  {MaxIterations: 1},
		"ExtraBench":     {ExtraBench: 3},
		"DisableShutter": {DisableShutter: true},
		"DisableMRC":     {DisableMRC: true},
		"all four":       {MaxIterations: 2, ExtraBench: 1, DisableShutter: true, DisableMRC: true},
	}
	for name, cfg := range shared {
		d := TrainCached(specs, cfg)
		if d == base || d.Rec != base.Rec {
			t.Fatalf("%s: want a Detector of its own around the shared recommender (same detector %v, same recommender %v)",
				name, d == base, d.Rec == base.Rec)
		}
		if want := cfg.withDefaults(); d.cfg.MaxIterations != want.MaxIterations || d.cfg.ExtraBench != want.ExtraBench ||
			d.cfg.DisableShutter != want.DisableShutter || d.cfg.DisableMRC != want.DisableMRC {
			t.Fatalf("%s: detector policy %+v, want %+v", name, d.cfg, want)
		}
	}
	own := map[string]Config{
		"Completion":     {Recommender: mining.RecommenderConfig{Completion: mining.CompletionConfig{Seed: 1}}},
		"FixedFoldIn":    {Recommender: mining.RecommenderConfig{Completion: mining.CompletionConfig{FixedFoldIn: true}}},
		"Unweighted":     {Recommender: mining.RecommenderConfig{Unweighted: true}},
		"PureCF":         {Recommender: mining.RecommenderConfig{PureCF: true}},
		"EnergyFraction": {Recommender: mining.RecommenderConfig{EnergyFraction: 0.5}},
	}
	for name, cfg := range own {
		d := TrainCached(specs, cfg)
		if d.Rec == base.Rec {
			t.Fatalf("%s: a recommender field must not share the default's recommender", name)
		}
		// Only the completion's Rank and Seed are trained into the base.
		if sameBase := d.Rec.Base() == base.Rec.Base(); sameBase != (name != "Completion") {
			t.Fatalf("%s: shares the default's base: %v", name, sameBase)
		}
	}
	if d := TrainCached(specs, Config{Recommender: mining.RecommenderConfig{Completion: mining.CompletionConfig{Rank: 6}}}); d != base {
		t.Fatal("Rank 6, the resolved default, should hit the zero-config entry")
	}

	// The policy is the Detector's own: on the same host and seed, the
	// MaxIterations 1 detector stops after one iteration, and adding
	// ExtraBench to it spends longer on that iteration.
	episode := func(d *Detector) Detection {
		adv := probe.NewAdversary("adv", 4, probe.Config{}, stats.NewRNG(13))
		s := sim.NewServer("s0", sim.ServerConfig{})
		if err := s.Place(adv.VM); err != nil {
			t.Fatal(err)
		}
		spec := workload.VictimSpecs(406, 1)[0]
		vm := &sim.VM{ID: "victim", VCPUs: 4, App: workload.NewApp(spec, workload.Constant{Level: 1}, 1)}
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
		return d.Detect(s, adv, 0, 1)
	}
	def := episode(base)
	one := episode(TrainCached(specs, shared["MaxIterations"]))
	extraDet := TrainCached(specs, Config{MaxIterations: 1, ExtraBench: 3})
	extra := episode(extraDet)
	if extraDet.Rec != base.Rec {
		t.Fatal("MaxIterations 1 + ExtraBench 3 should share the default's recommender")
	}
	if def.Iterations < 2 || one.Iterations != 1 || extra.Iterations != 1 {
		t.Fatalf("iterations: default %d (want ≥ 2 for the test to discriminate), MaxIterations 1 %d, with ExtraBench %d",
			def.Iterations, one.Iterations, extra.Iterations)
	}
	if extra.Ticks <= one.Ticks {
		t.Fatalf("one iteration took %d ticks with ExtraBench 3 and %d without: the extra benchmarks did not run", extra.Ticks, one.Ticks)
	}
}
