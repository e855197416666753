package exper

import (
	"fmt"
	"sort"

	"bolt/internal/core"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/trace"
	"bolt/internal/workload"
)

// Confusion quantifies the paper's misclassification claim (§3.4):
// "Misclassified jobs are typically identified as workloads with the same
// or similar critical resources." Each victim runs alone with the
// adversary; misdetections are tallied into a class×class confusion matrix
// and, for every miss, the dominant resources of truth and prediction are
// compared.
func Confusion(seed uint64) *Report {
	rep := newReport("confusion", "What do misclassified victims get mistaken for?")
	rng := stats.NewRNG(seed ^ 0xc04f)
	det := core.TrainCached(workload.TrainingSpecs(seed), core.Config{})

	const trials = 160
	victims := workload.VictimSpecs(seed, trials)

	classes := map[string]int{}
	order := []string{}
	idx := func(class string) int {
		if i, ok := classes[class]; ok {
			return i
		}
		classes[class] = len(order)
		order = append(order, class)
		return classes[class]
	}

	type miss struct {
		truth, got   string
		sameDominant bool
		sameTop2     bool
	}
	var misses []miss
	cells := map[[2]int]int{}
	correct := 0

	// Trials are independent (each builds its own server and adversary),
	// so they fan out on the episode pool: one RNG stream is split off per
	// trial serially here, each body consumes only its own stream, and the
	// per-trial outcomes are folded into the confusion matrix in trial
	// order below — identical bytes at every pool width.
	type trialOutcome struct {
		gotLabel, gotClass string
	}
	trialRngs := rng.SplitN(len(victims))
	outcomes := make([]trialOutcome, len(victims))
	forEachEpisode(len(victims), func(i int) {
		trng := trialRngs[i]
		spec := victims[i]
		s := sim.NewServer("s0", sim.ServerConfig{})
		app := workload.NewApp(spec, workload.Constant{Level: trng.Range(0.85, 1)}, trng.Uint64())
		if err := s.Place(&sim.VM{ID: "v", VCPUs: 3, App: app}); err != nil {
			panic(err)
		}
		adv := probe.NewAdversary("bolt", 4, probe.Config{}, trng.Split())
		if err := s.Place(adv.VM); err != nil {
			panic(err)
		}
		d := det.Detect(s, adv, sim.Tick(i*5000), 1)
		best := d.Result.Best()
		outcomes[i] = trialOutcome{gotLabel: best.Label, gotClass: best.Class}
	})
	for i, spec := range victims {
		out := outcomes[i]
		ti, gi := idx(spec.Class), idx(out.gotClass)
		cells[[2]int{ti, gi}]++
		if core.LabelMatches(out.gotLabel, spec.Label) {
			correct++
			continue
		}
		prof, ok := det.TrainingProfile(out.gotLabel)
		m := miss{truth: spec.Class, got: out.gotClass}
		if ok {
			truthTop := spec.Base.TopK(2)
			gotTop := prof.TopK(2)
			m.sameDominant = truthTop[0] == gotTop[0]
			for _, a := range truthTop {
				for _, b := range gotTop {
					if a == b {
						m.sameTop2 = true
					}
				}
			}
		}
		misses = append(misses, m)
	}

	// Render the class×class confusion matrix as a heatmap.
	sort.Strings(order)
	// Rebuild indices in sorted order for a stable display.
	newIdx := map[string]int{}
	for i, c := range order {
		newIdx[c] = i
	}
	heat := trace.NewHeatmap("Confusion matrix (rows = truth, cols = detected)",
		"truth class", "detected class", len(order), len(order))
	for cell, n := range cells {
		var truthName, gotName string
		for c, i := range classes {
			if i == cell[0] {
				truthName = c
			}
			if i == cell[1] {
				gotName = c
			}
		}
		heat.Set(newIdx[truthName], newIdx[gotName], float64(n))
	}
	rep.Heatmaps = append(rep.Heatmaps, heat)

	tb := trace.NewTable("Class legend (row/col order)", "Index", "Class")
	for i, c := range order {
		tb.Add(fmt.Sprintf("%d", i), c)
	}
	rep.Tables = append(rep.Tables, tb)

	sameDom, sameTop2 := 0, 0
	for _, m := range misses {
		if m.sameDominant {
			sameDom++
		}
		if m.sameTop2 {
			sameTop2++
		}
	}
	rep.Metrics["trials"] = float64(trials)
	rep.Metrics["label_accuracy"] = 100 * float64(correct) / float64(trials)
	rep.Metrics["misses"] = float64(len(misses))
	if len(misses) > 0 {
		rep.Metrics["miss_same_dominant_pct"] = 100 * float64(sameDom) / float64(len(misses))
		rep.Metrics["miss_top2_overlap_pct"] = 100 * float64(sameTop2) / float64(len(misses))
	}
	rep.Notes = append(rep.Notes,
		"paper (§3.4): misclassified jobs are typically identified as workloads with the same or similar critical resources — measured here as dominant-resource agreement among misses")
	return rep
}
