package exper

import (
	"fmt"

	"bolt/internal/mining"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/trace"
	"bolt/internal/workload"
)

// Figure4 reproduces Fig. 4: the coverage of the resource-characteristics
// space by the 120-application training set, shown as CPU×Memory and
// Network×Storage pressure scatters.
func Figure4(seed uint64) *Report {
	rep := newReport("fig4", "Training-set coverage")
	specs := workload.TrainingSpecs(seed)

	heat1 := trace.NewHeatmap("Fig 4a: CPU vs Memory pressure coverage",
		"memory pressure (top=100)", "CPU pressure", 10, 20)
	heat2 := trace.NewHeatmap("Fig 4b: Network vs Storage pressure coverage",
		"storage pressure (top=100)", "network pressure", 10, 20)
	var cpuXs, memYs, netXs, diskYs []float64
	for _, s := range specs {
		cpu := s.Base.Get(sim.CPU)
		mem := (s.Base.Get(sim.MemCap) + s.Base.Get(sim.MemBW)) / 2
		net := s.Base.Get(sim.NetBW)
		disk := (s.Base.Get(sim.DiskCap) + s.Base.Get(sim.DiskBW)) / 2
		cpuXs = append(cpuXs, cpu)
		memYs = append(memYs, mem)
		netXs = append(netXs, net)
		diskYs = append(diskYs, disk)
		mark := func(h *trace.Heatmap, x, y float64) {
			c := int(x / 100 * float64(h.Cols))
			r := h.Rows - 1 - int(y/100*float64(h.Rows))
			if c >= h.Cols {
				c = h.Cols - 1
			}
			if r < 0 {
				r = 0
			}
			if r >= h.Rows {
				r = h.Rows - 1
			}
			h.Set(r, c, h.At(r, c)+1)
		}
		mark(heat1, cpu, mem)
		mark(heat2, net, disk)
	}
	rep.Heatmaps = append(rep.Heatmaps, heat1, heat2)

	// Coverage metric: fraction of 20×20-point grid cells within 15 points
	// of some training app — how well the set tiles the space it occupies.
	rep.Metrics["cpu_mem_spread"] = stats.StdDev(cpuXs) + stats.StdDev(memYs)
	rep.Metrics["net_disk_spread"] = stats.StdDev(netXs) + stats.StdDev(diskYs)
	rep.Metrics["training_apps"] = float64(len(specs))
	rep.Notes = append(rep.Notes,
		"paper: training apps cover the majority of the resource-usage space")
	return rep
}

// Figure2 reproduces Fig. 2: the probability that an unknown workload is a
// read-mostly, KB-value memcached instance, as a function of the pressure
// it exerts on pairs of resources. The posterior is estimated empirically:
// many labelled samples are drawn from the catalog, binned by the pressure
// pair, and P(memcached) is the bin's share of memcached samples.
func Figure2(seed uint64) *Report {
	rep := newReport("fig2", "P(memcached) vs resource pressure pairs")
	rng := stats.NewRNG(seed ^ 0xf162)

	pairs := []struct {
		x, y sim.Resource
	}{
		{sim.L1I, sim.LLC},
		{sim.L1D, sim.CPU},
		{sim.MemCap, sim.MemBW},
		{sim.DiskCap, sim.NetBW},
		{sim.DiskBW, sim.L2},
	}
	const bins = 10
	type grid struct {
		mem, all [bins][bins]float64
	}
	grids := make([]grid, len(pairs))

	gens := workload.Generators()
	const samples = 30000
	for i := 0; i < samples; i++ {
		g := gens[rng.Intn(len(gens))]
		spec := g.Make(rng.Split(), rng.Intn(24))
		isMem := spec.Class == "memcached"
		for pi, p := range pairs {
			bx := int(spec.Base.Get(p.x) / 100 * bins)
			by := int(spec.Base.Get(p.y) / 100 * bins)
			if bx >= bins {
				bx = bins - 1
			}
			if by >= bins {
				by = bins - 1
			}
			grids[pi].all[bx][by]++
			if isMem {
				grids[pi].mem[bx][by]++
			}
		}
	}

	var peak float64
	for pi, p := range pairs {
		h := trace.NewHeatmap(
			fmt.Sprintf("Fig 2: P(memcached) vs %s (x) and %s (y, top=100)", p.x, p.y),
			p.y.String(), p.x.String(), bins, bins)
		for bx := 0; bx < bins; bx++ {
			for by := 0; by < bins; by++ {
				if grids[pi].all[bx][by] < 5 {
					continue
				}
				prob := grids[pi].mem[bx][by] / grids[pi].all[bx][by]
				h.Set(bins-1-by, bx, prob)
				if prob > peak {
					peak = prob
				}
			}
		}
		rep.Heatmaps = append(rep.Heatmaps, h)
	}
	rep.Metrics["peak_probability"] = peak

	// The paper's two headline signals: high L1-i + high LLC pressure is
	// strongly memcached; any disk traffic rules memcached out.
	memSignal, memAll, diskSignal, diskAll := 0.0, 0.0, 0.0, 0.0
	for i := 0; i < samples/3; i++ {
		g := gens[rng.Intn(len(gens))]
		spec := g.Make(rng.Split(), rng.Intn(24))
		if spec.Base.Get(sim.L1I) > 75 && spec.Base.Get(sim.LLC) > 60 {
			memAll++
			if spec.Class == "memcached" {
				memSignal++
			}
		}
		if spec.Base.Get(sim.DiskBW) > 20 {
			diskAll++
			if spec.Class == "memcached" {
				diskSignal++
			}
		}
	}
	if memAll > 0 {
		rep.Metrics["p_memcached_given_high_l1i_llc"] = memSignal / memAll
	}
	if diskAll > 0 {
		rep.Metrics["p_memcached_given_disk_traffic"] = diskSignal / diskAll
	}
	rep.Notes = append(rep.Notes,
		"paper: very high L1-i plus high LLC pressure ⇒ memcached with high probability; disk usage ⇒ not memcached")
	return rep
}

// figure5Catalog is the training set of Fig. 5's recommender: the
// reference jobs, then seed's training catalog, since a recommender needs a
// broader context to have meaningful concepts. It is not the catalog the
// detectors train on, so its recommender is a base of its own.
func figure5Catalog(seed uint64, refs ...workload.Spec) []mining.LabeledProfile {
	var profiles []mining.LabeledProfile
	for _, s := range append(refs, workload.TrainingSpecs(seed)...) {
		profiles = append(profiles, mining.LabeledProfile{
			Label: s.Label, Class: s.Class, Pressure: s.Base.Slice(),
		})
	}
	return profiles
}

// Figure5 reproduces Fig. 5: the star charts comparing two Hadoop jobs
// (word count on a small dataset vs a recommender on a large one) and the
// similarity scores an unknown Hadoop job receives against each.
func Figure5(seed uint64) *Report {
	rep := newReport("fig5", "Star charts and within-framework similarity")
	rng := stats.NewRNG(seed ^ 0xf165)

	wc := workload.Hadoop(rng.Split(), 0)   // wordcount:S
	rec := workload.Hadoop(rng.Split(), 22) // recommender, L-size cycle
	unknown := workload.Hadoop(rng.Split(), 14)

	tb := trace.NewTable("Fig 5: resource profiles (star-chart radii)",
		append([]string{"Resource"}, wc.Label, rec.Label, "unknown")...)
	for _, r := range sim.AllResources() {
		tb.Add(r.String(),
			fmt.Sprintf("%.0f", wc.Base.Get(r)),
			fmt.Sprintf("%.0f", rec.Base.Get(r)),
			fmt.Sprintf("%.0f", unknown.Base.Get(r)))
	}
	rep.Tables = append(rep.Tables, tb)

	// Similarity of the unknown job to each reference, through the real
	// recommender so the scores carry the paper's meaning.
	recSys := mining.NewRecommender(figure5Catalog(seed, wc, rec), mining.RecommenderConfig{})
	// The unknown job's profile is fully observed.
	allKnown := make([]bool, sim.NumResources)
	for j := range allKnown {
		allKnown[j] = true
	}
	simWC := recSys.LabelSimilarity(unknown.Base.Slice(), allKnown, wc.Label)
	simRec := recSys.LabelSimilarity(unknown.Base.Slice(), allKnown, rec.Label)
	rep.Metrics["similarity_wordcount"] = simWC
	rep.Metrics["similarity_recommender"] = simRec

	tb2 := trace.NewTable("Similarity of the unknown job", "Reference", "Similarity")
	tb2.Add(wc.Label, fmt.Sprintf("%.2f", simWC))
	tb2.Add(rec.Label, fmt.Sprintf("%.2f", simRec))
	rep.Tables = append(rep.Tables, tb2)
	rep.Notes = append(rep.Notes,
		"paper: unknown Hadoop job is 0.78 similar to the recommender vs 0.29 to word count")
	return rep
}
