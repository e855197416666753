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

// scratchHolding returns a fresh scratch of r that has planned the masks
// in order, as one that served them would have.
func scratchHolding(r *Recommender, masks ...[]bool) *detectScratch {
	s := r.scratch.New().(*detectScratch)
	for _, known := range masks {
		r.planFor(s, known)
	}
	return s
}

// heldMasks returns the masks s holds plans for, in slot order.
func heldMasks(s *detectScratch) [][]bool {
	out := make([][]bool, len(s.plans))
	for i, p := range s.plans {
		out[i] = p.known
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
// EnergyFraction 0.5 and FixedFoldIn configurations, with the scratch each
// call runs on in each of its three states: empty (the call builds the
// plan into a new slot), already holding the mask (the plan is read), and
// full of other masks, one slot already overwritten once (the call
// overwrites the oldest). Pressure, labels and similarities are compared
// by bits.
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
				// Nine other masks: the ninth has overwritten the first, so
				// the oldest plan is in slot 1.
				others := make([][]bool, planSlots+1)
				for i := range others {
					others[i] = maskOf((bits+1+i)%masks, n)
				}
				// Each call runs on a scratch in the named state and must
				// leave it holding the mask in the slot that state picks;
				// reset then returns the scratch to its state.
				states := []struct {
					name  string
					s     *detectScratch
					reset func(s *detectScratch)
					after [][]bool
				}{
					{"empty", scratchHolding(rec), func(s *detectScratch) { s.plans = s.plans[:0] }, [][]bool{known}},
					{"hit", scratchHolding(rec, known), func(*detectScratch) {}, [][]bool{known}},
					{"full", scratchHolding(rec, others...), func(s *detectScratch) {
						rec.buildPlan(s.plans[1], others[1], s.complete.tmp)
						s.next = 1
					}, append([][]bool{others[planSlots], known}, others[2:planSlots]...)},
				}
				for _, st := range states {
					run := func(call string, f func(s *detectScratch) string) {
						t.Helper()
						if diff := f(st.s); diff != "" {
							t.Fatalf("mask %010b, scratch %s: %s: %s", bits, st.name, call, diff)
						}
						if rec.cfg.PureCF && call != "Detect" {
							return // LabelSimilarity plans nothing under PureCF
						}
						if got := heldMasks(st.s); !slices.EqualFunc(got, st.after, slices.Equal) {
							t.Fatalf("mask %010b, scratch %s: after %s it holds %v, want %v", bits, st.name, call, got, st.after)
						}
						st.reset(st.s)
					}
					run("Detect", func(s *detectScratch) string { return sameHead(rec.detect(s, obs, known), want) })
					for _, label := range labels {
						run("LabelSimilarity", func(s *detectScratch) string {
							got, w := rec.labelSimilarity(s, obs, known, label), scanLabel(want.Matches, label)
							if math.Float64bits(got) != math.Float64bits(w) {
								return fmt.Sprintf("%q = %v, ranked scan reads %v", label, got, w)
							}
							return ""
						})
					}
				}
			}
		})
	}
}

// TestMaskPlanConcurrent races eight goroutines over the same 32 masks, in
// different orders, on one fresh recommender: every answer must be the
// serial reference's. Each goroutine's pooled scratch cycles more masks
// than it holds plans for, so plans are built and overwritten throughout;
// run it under -race to check no plan is shared between calls.
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
}
