package core

import (
	"slices"
	"sync"
	"testing"

	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// TestTrainCachedSharesRecommender: Base.View returns one
// *mining.Recommender per resolved config, to concurrent callers too —
// EnergyFraction 0 and 0.9 are one key, Rank 0 and 6 are one key, every
// other recommender field is a key of its own — and TrainCached hands each
// config the view of its recommender config.
func TestTrainCachedSharesRecommender(t *testing.T) {
	specs := workload.TrainingSpecs(408)
	base := TrainCached(specs, Config{}).Rec.Base()
	groups := [][]mining.RecommenderConfig{
		{{}, {EnergyFraction: 0.9}, {Completion: mining.CompletionConfig{Rank: 6}}},
		{{Unweighted: true}},
		{{PureCF: true}},
		{{EnergyFraction: 0.5}},
		{{Completion: mining.CompletionConfig{FixedFoldIn: true}}, {EnergyFraction: 0.9, Completion: mining.CompletionConfig{Rank: 6, FixedFoldIn: true}}},
	}
	var cfgs []mining.RecommenderConfig
	var group []int
	for g, cs := range groups {
		cfgs = append(cfgs, cs...)
		for range cs {
			group = append(group, g)
		}
	}
	const callers = 8
	got := make([][]*mining.Recommender, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := range got {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = make([]*mining.Recommender, len(cfgs))
			<-start
			// Callers start at different configs, so each view is
			// contended on its first build.
			for k := range cfgs {
				i := (k + c) % len(cfgs)
				got[c][i] = base.View(cfgs[i])
			}
		}(c)
	}
	close(start)
	wg.Wait()
	first := map[int]*mining.Recommender{}
	for i, cfg := range cfgs {
		want, seen := first[group[i]]
		if !seen {
			want = got[0][i]
			first[group[i]] = want
		}
		for c := range got {
			if got[c][i] != want {
				t.Fatalf("config %+v: caller %d got another view than config %+v", cfg, c, cfgs[slices.Index(group, group[i])])
			}
		}
		if d := TrainCached(specs, Config{Recommender: cfg, MaxIterations: 2}); d.Rec != want {
			t.Fatalf("config %+v: TrainCached's detector is not around the base's view", cfg)
		}
	}
	if len(first) != len(groups) {
		t.Fatalf("%d recommender configs reach %d views, want %d", len(cfgs), len(first), len(groups))
	}
	for g, r := range first {
		for h, o := range first {
			if g != h && r == o {
				t.Fatalf("configs %+v and %+v share a view", groups[g][0], groups[h][0])
			}
		}
	}
}

// TestTrainCachedReturnsSameDetector: a Detector is its view and its
// resolved policy, so equal spec content under configs that resolve alike
// gives equal Detectors — the explicitly defaulted MaxIterations too, and a
// rebuilt spec slice, since identity is the content fingerprint, not the
// slice header.
func TestTrainCachedReturnsSameDetector(t *testing.T) {
	specs := workload.TrainingSpecs(400)
	a := TrainCached(specs, Config{})
	for name, d := range map[string]*Detector{
		"the same call":        TrainCached(specs, Config{}),
		"MaxIterations 6":      TrainCached(specs, Config{MaxIterations: 6}),
		"a rebuilt spec slice": TrainCached(workload.TrainingSpecs(400), Config{}),
		"both":                 TrainCached(workload.TrainingSpecs(400), Config{MaxIterations: 6}),
	} {
		if *d != *a {
			t.Fatalf("%s: got another detector than the zero config's (same view %v, policy %+v vs %+v)", name, d.Rec == a.Rec, d.cfg, a.cfg)
		}
	}
}

// TestTrainCachedConcurrent hammers one key from many goroutines: all must
// get the same detector, and (under -race) the single training pass must
// not race with concurrent lookups.
func TestTrainCachedConcurrent(t *testing.T) {
	specs := workload.TrainingSpecs(404)
	const goroutines = 16
	dets := make([]*Detector, goroutines)
	var wg sync.WaitGroup
	for i := range dets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dets[i] = TrainCached(specs, Config{})
		}(i)
	}
	wg.Wait()
	for i, d := range dets {
		if *d != *dets[0] {
			t.Fatalf("goroutine %d got a different detector", i)
		}
	}
}

// TestTrainCachedEvictionHammer drives the memo past its bound from
// concurrent callers with many distinct small catalogs, so eviction races
// against singleflight misses: every caller must get a detector trained on
// its own catalog, and the memo must stay within trainCacheCap catalogs.
func TestTrainCachedEvictionHammer(t *testing.T) {
	const keys, callers = 3 * trainCacheCap, 4
	specSets := make([][]workload.Spec, keys)
	for k := range specSets {
		specSets[k] = workload.TrainingSpecs(uint64(2000 + k))[:6]
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range specSets {
				// Stagger start points so callers collide on different keys.
				specs := specSets[(k+c*keys/callers)%keys]
				if got := TrainCached(specs, Config{}).Profiles(); len(got) != len(specs) || !slices.Equal(got[0].Pressure, specs[0].Base.Slice()) {
					t.Errorf("caller %d got a detector trained on another catalog", c)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if n := memoLen(); n > trainCacheCap {
		t.Fatalf("the memo holds %d catalogs, its bound is %d", n, trainCacheCap)
	}
}

func memoLen() int {
	trainCache.Lock()
	defer trainCache.Unlock()
	return len(trainCache.m)
}

// TestTrainCachedBounded: trained one after another, more catalogs than
// the bound leave the memo within trainCacheCap catalogs, and a catalog
// added to a full memo outlives its own addition.
func TestTrainCachedBounded(t *testing.T) {
	for k := 0; k < 2*trainCacheCap+1; k++ {
		TrainCached(workload.TrainingSpecs(uint64(3000 + k))[:4], Config{})
		if n := memoLen(); n > trainCacheCap {
			t.Fatalf("after %d catalogs the memo holds %d, its bound is %d", k+1, n, trainCacheCap)
		}
	}
	for k := 0; memoLen() < trainCacheCap; k++ {
		TrainCached(workload.TrainingSpecs(uint64(3100 + k))[:4], Config{})
	}
	fresh := workload.TrainingSpecs(407)[:4]
	if TrainCached(fresh, Config{}).Rec != TrainCached(fresh, Config{}).Rec {
		t.Fatal("a full memo dropped the catalog it had just added")
	}
}

// TestTrainCachedDistinguishesInputs: the policy fields are each
// Detector's own. Configs that differ only in them share one recommender,
// yet on the same host and seed the MaxIterations 1 detector stops after
// one iteration, and adding ExtraBench to it spends longer on that
// iteration.
func TestTrainCachedDistinguishesInputs(t *testing.T) {
	specs := workload.TrainingSpecs(406)
	episode := func(cfg Config) Detection {
		d := TrainCached(specs, cfg)
		if d.cfg != cfg.withDefaults() {
			t.Fatalf("detector policy %+v, want %+v", d.cfg, cfg.withDefaults())
		}
		if def := TrainCached(specs, Config{}); d.Rec != def.Rec {
			t.Fatalf("config %+v does not share the default's recommender", cfg)
		}
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
	def := episode(Config{})
	one := episode(Config{MaxIterations: 1})
	extra := episode(Config{MaxIterations: 1, ExtraBench: 3})
	episode(Config{DisableShutter: true, DisableMRC: true})
	if def.Iterations < 2 || one.Iterations != 1 || extra.Iterations != 1 {
		t.Fatalf("iterations: default %d (want ≥ 2 for the test to discriminate), MaxIterations 1 %d, with ExtraBench %d",
			def.Iterations, one.Iterations, extra.Iterations)
	}
	if extra.Ticks <= one.Ticks {
		t.Fatalf("one iteration took %d ticks with ExtraBench 3 and %d without: the extra benchmarks did not run", extra.Ticks, one.Ticks)
	}
}
