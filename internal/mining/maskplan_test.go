package mining

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"bolt/internal/stats"
	"bolt/internal/workload"
)

// planCatalog is the 120-profile training catalog the detector trains on,
// as labelled profiles.
func planCatalog(seed uint64) []LabeledProfile {
	specs := workload.TrainingSpecs(seed)
	out := make([]LabeledProfile, len(specs))
	for i, s := range specs {
		out[i] = LabeledProfile{Label: s.Label, Class: s.Class, Pressure: s.Base.Slice()}
	}
	return out
}

// maskOf returns the known mask whose bit j is entry j.
func maskOf(bits, n int) []bool {
	known := make([]bool, n)
	for j := range known {
		known[j] = bits>>j&1 == 1
	}
	return known
}

// clearPlans empties the plan table.
func clearPlans(r *Recommender) {
	for i := range r.plans {
		r.plans[i].Store(nil)
	}
}

// publishedMasks returns the masks of the plans in the table, in slot
// order, stopping at the first empty slot.
func publishedMasks(r *Recommender) [][]bool {
	var out [][]bool
	for i := range r.plans {
		p := r.plans[i].Load()
		if p == nil {
			break
		}
		out = append(out, p.known)
	}
	return out
}

// sameHead reports how got differs from the head of the reference ranking
// want, by bits: "" when the pressure and the first min(MatchesKept, n)
// matches — label, class and similarity — are identical.
func sameHead(got, want *Result) string {
	for j := range want.Pressure {
		if math.Float64bits(got.Pressure[j]) != math.Float64bits(want.Pressure[j]) {
			return fmt.Sprintf("pressure[%d] %v, reference %v", j, got.Pressure[j], want.Pressure[j])
		}
	}
	k := min(MatchesKept, len(want.Matches))
	if len(got.Matches) != k {
		return fmt.Sprintf("%d matches, want %d", len(got.Matches), k)
	}
	for i, m := range got.Matches {
		w := want.Matches[i]
		if m.Label != w.Label || m.Class != w.Class || math.Float64bits(m.Similarity) != math.Float64bits(w.Similarity) {
			return fmt.Sprintf("match %d is %+v, reference %+v", i, m, w)
		}
	}
	return ""
}

// scanLabel is what scanning the full ranking for label reads: the first
// nonzero similarity carrying it, else the last zero, else 0.
func scanLabel(ranking []Match, label string) float64 {
	sim := 0.0
	for _, m := range ranking {
		if m.Label == label && sim == 0 {
			sim = m.Similarity
		}
	}
	return sim
}

// TestMaskPlanMatchesReference holds Detect and LabelSimilarity to the
// pre-plan reference (detectReference: the fold-in chain and every
// profile's Eq. 1 moments recomputed per call) over all 1,024 known masks
// of the 10-resource catalog, under the default, Unweighted, PureCF,
// EnergyFraction 0.5 and FixedFoldIn configurations, with the plan table
// in each of its three states: empty (the call builds and publishes the
// plan), hit (the published plan is read), and full of eight other masks
// (the plan is built in the pooled scratch). Pressure, labels and
// similarities are compared by bits.
func TestMaskPlanMatchesReference(t *testing.T) {
	catalog := planCatalog(42)
	n := len(catalog[0].Pressure)
	configs := []struct {
		name string
		cfg  RecommenderConfig
	}{
		{"default", RecommenderConfig{}},
		{"unweighted", RecommenderConfig{Unweighted: true}},
		{"purecf", RecommenderConfig{PureCF: true}},
		{"energy0.5", RecommenderConfig{EnergyFraction: 0.5}},
		{"fixedfoldin", RecommenderConfig{Completion: CompletionConfig{FixedFoldIn: true}}},
	}
	masks := 1 << n
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			rec := NewRecommender(catalog, cfg.cfg)
			rng := stats.NewRNG(35)
			for bits := 0; bits < masks; bits++ {
				known := maskOf(bits, n)
				src := catalog[rng.Intn(len(catalog))].Pressure
				obs := make([]float64, n)
				for j := range obs {
					if known[j] {
						obs[j] = stats.Clamp(src[j]+rng.Norm(0, 6), 0, 100)
					}
				}
				want := rec.detectReference(obs, known)
				// The best match's label (blank under PureCF, so a catalog
				// label stands in) and one drawn from the catalog.
				labels := []string{want.Matches[0].Label, catalog[rng.Intn(len(catalog))].Label}
				if labels[0] == "" {
					labels[0] = catalog[0].Label
				}
				check := func(state string) {
					t.Helper()
					if diff := sameHead(rec.Detect(obs, known), want); diff != "" {
						t.Fatalf("mask %010b, table %s: Detect: %s", bits, state, diff)
					}
					for _, label := range labels {
						got, w := rec.LabelSimilarity(obs, known, label), scanLabel(want.Matches, label)
						if math.Float64bits(got) != math.Float64bits(w) {
							t.Fatalf("mask %010b, table %s: LabelSimilarity(%q) = %v, ranked scan reads %v", bits, state, label, got, w)
						}
					}
				}

				clearPlans(rec)
				check("empty")
				if got := publishedMasks(rec); len(got) != 1 || !slices.Equal(got[0], known) {
					t.Fatalf("mask %010b: after one query on an empty table it holds %v", bits, got)
				}
				check("hit")

				clearPlans(rec)
				for i := range rec.plans {
					p := rec.newPlan()
					rec.buildPlan(p, maskOf((bits+1+i)%masks, n), make([]float64, rec.complete.cfg.Rank*rec.complete.cfg.Rank))
					rec.plans[i].Store(p)
				}
				check("full")
				for _, m := range publishedMasks(rec) {
					if slices.Equal(m, known) {
						t.Fatalf("mask %010b was published into a full table", bits)
					}
				}
			}
		})
	}
}

// TestMaskPlanConcurrent races eight goroutines over the same 32 masks, in
// different orders, on one fresh recommender: every answer must be the
// serial reference's, and the table must end holding planSlots plans with
// no mask twice. Run it under -race to check publication.
func TestMaskPlanConcurrent(t *testing.T) {
	catalog := planCatalog(43)
	n := len(catalog[0].Pressure)
	rec := NewRecommender(catalog, RecommenderConfig{})
	const goroutines, queries = 8, 32
	rng := stats.NewRNG(36)
	type query struct {
		obs   []float64
		known []bool
		want  *Result
	}
	qs := make([]query, queries)
	for i := range qs {
		known := maskOf(i*37%(1<<n), n)
		obs := make([]float64, n)
		for j := range obs {
			obs[j] = rng.Range(0, 100)
		}
		qs[i] = query{obs, known, rec.detectReference(obs, known)}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := 0; k < queries; k++ {
				// Odd goroutines walk the masks backwards, so the first
				// slots are contended from both ends.
				i := (k + g*queries/goroutines) % queries
				if g%2 == 1 {
					i = queries - 1 - i
				}
				q := qs[i]
				if diff := sameHead(rec.Detect(q.obs, q.known), q.want); diff != "" {
					t.Errorf("goroutine %d, query %d: %s", g, i, diff)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	published := publishedMasks(rec)
	if len(published) != planSlots {
		t.Fatalf("table holds %d plans after %d distinct masks, want all %d slots filled", len(published), queries, planSlots)
	}
	for i, m := range published {
		if !slices.ContainsFunc(qs, func(q query) bool { return slices.Equal(q.known, m) }) {
			t.Fatalf("slot %d holds mask %v, which no query asked for", i, m)
		}
		for _, other := range published[:i] {
			if slices.Equal(m, other) {
				t.Fatalf("mask %v published twice", m)
			}
		}
	}
}
