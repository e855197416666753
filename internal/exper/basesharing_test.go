package exper

import (
	"fmt"
	"math"
	"testing"

	"bolt/internal/core"
	"bolt/internal/mining"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// suiteConfigs are the configs the suite trains its detectors with through
// core.TrainCached: the default, the DoS planners' attackPlanConfig, the
// ablation variants and Fig. 10c's ExtraBench sweep.
func suiteConfigs() []core.Config {
	cfgs := []core.Config{{}, attackPlanConfig(), {DisableShutter: true}, {DisableMRC: true}}
	for _, rc := range []mining.RecommenderConfig{
		{PureCF: true}, {Unweighted: true},
		{EnergyFraction: 0.5}, {EnergyFraction: 0.75}, {EnergyFraction: 0.9}, {EnergyFraction: 0.99},
	} {
		cfgs = append(cfgs, core.Config{Recommender: rc})
	}
	for _, n := range []int{3, 4, 6, 8, 10} {
		cfgs = append(cfgs, core.Config{ExtraBench: n - 2})
	}
	return cfgs
}

// TestSuiteConfigsShareOneBase: at one seed every suite config's
// recommender is a view of one mining.Base, Fig. 5's catalog gets a base of
// its own, and each view answers exactly as a recommender trained from
// scratch with its config does: the same completions and rankings, bit for
// bit, over a corpus of masks and observations.
func TestSuiteConfigsShareOneBase(t *testing.T) {
	const seed = 42
	specs := workload.TrainingSpecs(seed)
	var recs []*mining.Recommender
	var cfgs []mining.RecommenderConfig
	seen := map[*mining.Recommender]bool{}
	for _, cfg := range suiteConfigs() {
		rec := core.TrainCached(specs, cfg).Rec
		if !seen[rec] {
			seen[rec] = true
			recs, cfgs = append(recs, rec), append(cfgs, cfg.Recommender)
		}
	}
	if len(recs) != 7 {
		t.Errorf("the suite's configs reach %d recommenders, want 7", len(recs))
	}
	base := recs[0].Base()
	for i, rec := range recs {
		if rec.Base() != base {
			t.Errorf("recommender config %+v has a base of its own", cfgs[i])
		}
	}
	fig5 := mining.NewRecommender(figure5Catalog(seed, specs[:2]...), mining.RecommenderConfig{})
	if fig5.Base() == base {
		t.Error("Fig. 5's catalog shares the detectors' base")
	}

	catalog := figure5Catalog(seed)
	rng := stats.NewRNG(37)
	type query struct {
		observed []float64
		known    []bool
	}
	var corpus []query
	for q := 0; q < 60; q++ {
		obs, known := make([]float64, sim.NumResources), make([]bool, sim.NumResources)
		for j := range obs {
			obs[j] = rng.Range(0, 100)
			known[j] = q == 0 || (q > 1 && rng.Bool(0.4))
		}
		if q%10 == 9 {
			obs[rng.Intn(len(obs))] = math.NaN()
		}
		corpus = append(corpus, query{obs, known})
	}
	for i, rec := range recs {
		fresh := mining.NewRecommender(catalog, cfgs[i])
		for qi, q := range corpus {
			got, want := rec.Detect(q.observed, q.known), fresh.Detect(q.observed, q.known)
			if err := sameResult(got, want); err != nil {
				t.Fatalf("config %+v, query %d: %v", cfgs[i], qi, err)
			}
			label := catalog[qi%len(catalog)].Label
			g, w := rec.LabelSimilarity(q.observed, q.known, label), fresh.LabelSimilarity(q.observed, q.known, label)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("config %+v, query %d: LabelSimilarity %v, want %v", cfgs[i], qi, g, w)
			}
		}
	}
}

// sameResult compares two detections field by field, floats by their bits.
func sameResult(got, want *mining.Result) error {
	if len(got.Pressure) != len(want.Pressure) || len(got.Matches) != len(want.Matches) {
		return fmt.Errorf("%d pressures and %d matches, want %d and %d",
			len(got.Pressure), len(got.Matches), len(want.Pressure), len(want.Matches))
	}
	for j := range want.Pressure {
		if math.Float64bits(got.Pressure[j]) != math.Float64bits(want.Pressure[j]) {
			return fmt.Errorf("pressure %d: %v, want %v", j, got.Pressure[j], want.Pressure[j])
		}
	}
	for k := range want.Matches {
		g, w := got.Matches[k], want.Matches[k]
		if g.Label != w.Label || g.Class != w.Class || math.Float64bits(g.Similarity) != math.Float64bits(w.Similarity) {
			return fmt.Errorf("match %d: %+v, want %+v", k, g, w)
		}
	}
	return nil
}
