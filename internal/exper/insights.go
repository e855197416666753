package exper

import (
	"fmt"
	"sort"

	"bolt/internal/core"
	"bolt/internal/sim"
	"bolt/internal/trace"
	"bolt/internal/workload"
)

// Insights reproduces the "System insights from data mining" analysis of
// §3.2: before dimensionality reduction each similarity concept corresponds
// to a shared resource; the magnitude of each concept says how strongly it
// captures application similarities, so ranking resources by their
// participation in strong concepts reveals which ones leak the most
// information about a workload — and whose isolation should be prioritised.
// The paper finds the LLC and L1-i caches carry the most value, followed by
// compute intensity and memory bandwidth, with L2 a poor indicator.
func Insights(seed uint64) *Report {
	rep := newReport("insights", "Which resources leak the most information")
	det := core.TrainCached(workload.TrainingSpecs(seed), core.Config{})

	// Per-resource information value from the similarity concepts.
	value := det.Rec.ResourceValue()
	type rv struct {
		r sim.Resource
		v float64
	}
	ranked := make([]rv, 0, sim.NumResources)
	for _, r := range sim.AllResources() {
		ranked = append(ranked, rv{r, value[r]})
	}
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].v > ranked[b].v })

	tb := trace.NewTable("Per-resource information value (σ-weighted concept participation)",
		"Rank", "Resource", "Value", "Core/Uncore")
	for i, e := range ranked {
		kind := "uncore"
		if e.r.IsCore() {
			kind = "core"
		}
		tb.Add(fmt.Sprintf("%d", i+1), e.r.String(), fmt.Sprintf("%.2f", e.v), kind)
		rep.Metrics["value_"+e.r.String()] = e.v
	}
	rep.Tables = append(rep.Tables, tb)

	// Similarity-concept strengths (the singular-value spectrum).
	sigma := det.Rec.Sigma()
	var xs, ys []float64
	total := 0.0
	for _, s := range sigma {
		total += s * s
	}
	cum := 0.0
	for i, s := range sigma {
		xs = append(xs, float64(i+1))
		cum += s * s
		ys = append(ys, 100*cum/total)
	}
	fig := trace.NewFigure("Similarity-concept energy spectrum (cumulative %)",
		"concept rank", "cumulative energy (%)")
	fig.AddSeries("energy", xs, ys)
	rep.Figures = append(rep.Figures, fig)
	rep.Metrics["concepts_retained"] = float64(det.Rec.Rank())

	// Validate the ranking against ground truth: measure detection accuracy
	// when only a single resource is observed (plus completion). A
	// high-value resource should identify more victims on its own.
	victims := workload.VictimSpecs(seed, 60)
	// The observation rows don't depend on which resource is "known", so
	// they are built once and every per-resource sweep reuses them.
	obs := make([][]float64, len(victims))
	for i, spec := range victims {
		obs[i] = spec.Base.Slice()
	}
	tb2 := trace.NewTable("Single-resource detection accuracy (exact observation)",
		"Resource", "Accuracy")
	for _, r := range sim.AllResources() {
		known := make([]bool, sim.NumResources)
		known[r] = true
		correct := 0
		for i, spec := range victims {
			if core.LabelMatches(det.Rec.Detect(obs[i], known).Best().Label, spec.Label) {
				correct++
			}
		}
		acc := 100 * float64(correct) / float64(len(victims))
		tb2.Add(r.String(), pct(acc))
		rep.Metrics["single_"+r.String()] = acc
	}
	rep.Tables = append(rep.Tables, tb2)
	rep.Notes = append(rep.Notes,
		"paper: LLC and L1-i carry the most detection value, then compute intensity and memory bandwidth; L2 is a poor indicator (32KB→256KB captures little working-set change)")
	return rep
}
