package exper

import (
	"fmt"

	"bolt/internal/isolation"
	"bolt/internal/latency"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/trace"
	"bolt/internal/workload"
)

// figure14Scale shrinks the controlled experiment for the 18-configuration
// isolation sweep (3 platforms × 6 stack steps) so the full harness stays
// fast; the accuracy trends are what matter.
const (
	fig14Servers = 16
	fig14Victims = 44
)

// Figure14 reproduces Fig. 14: detection accuracy as isolation mechanisms
// are layered onto baremetal, container, and VM platforms, ending with
// core isolation; plus the paper's note that core isolation alone still
// allows 46% accuracy.
func Figure14(seed uint64) *Report {
	rep := newReport("fig14", "Detection accuracy under isolation")

	labels := isolation.StackLabels()
	fig := trace.NewFigure("Fig 14: accuracy vs isolation mechanisms",
		"stack step (0=none .. 5=+core isolation)", "accuracy (%)")
	tb := trace.NewTable("Fig 14: accuracy (%) per platform and mechanism stack",
		append([]string{"Platform"}, labels...)...)

	// The 18 stack configurations plus the core-isolation-only run are
	// independent controlled experiments, each deriving all randomness from
	// seed, so they fan out on the episode pool and are read back from their
	// slots in configuration order.
	platforms := isolation.Platforms()
	var cfgs []sim.ServerConfig
	for _, p := range platforms {
		for _, cfg := range isolation.Stack(p) {
			cfgs = append(cfgs, cfg.ServerConfig(8, 2))
		}
	}
	cfgs = append(cfgs, isolation.CoreIsolationOnly(isolation.Containers).ServerConfig(8, 2))
	accs := make([]float64, len(cfgs))
	forEachEpisode(len(cfgs), func(i int) {
		accs[i] = RunControlled(ControlledConfig{
			Seed:      seed,
			Servers:   fig14Servers,
			Victims:   fig14Victims,
			ServerCfg: cfgs[i],
		}).Accuracy()
	})

	next := 0
	for _, p := range platforms {
		row := []string{p.String()}
		var xs, ys []float64
		for step := range isolation.Stack(p) {
			acc := accs[next]
			next++
			row = append(row, fmt.Sprintf("%.0f", acc))
			xs = append(xs, float64(step))
			ys = append(ys, acc)
			rep.Metrics[fmt.Sprintf("%s_step%d", p.String(), step)] = acc
		}
		tb.Add(row...)
		fig.AddSeries(p.String(), xs, ys)
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Figures = append(rep.Figures, fig)
	rep.Metrics["core_isolation_only"] = accs[next]
	rep.Notes = append(rep.Notes,
		"paper: accuracy falls from 81% (baremetal/none) to ~50% with all partitioning, 14% with core isolation on containers/VMs; core isolation alone still allows 46%")
	return rep
}

// IsolationCost reproduces the §6 cost analysis: core isolation's 34%
// average execution-time penalty (threads of one job contending with each
// other) and the utilisation sacrificed either by whole-core reservation
// or by over-provisioning.
func IsolationCost(seed uint64) *Report {
	rep := newReport("isocost", "Cost of core isolation")
	rng := stats.NewRNG(seed ^ 0x150c057)

	// Performance: run batch victims with and without the core-isolation
	// penalty applied.
	cfg := isolation.Config{Platform: isolation.Containers, CoreIsolation: true}
	var slowdowns []float64
	victims := workload.VictimSpecs(seed, 30)
	for _, spec := range victims {
		spec.Jitter = 0
		s := sim.NewServer("s0", sim.ServerConfig{})
		app := workload.NewApp(spec, workload.Constant{Level: 0.95}, rng.Uint64())
		vm := &sim.VM{ID: "v", VCPUs: 4, App: app}
		if err := s.Place(vm); err != nil {
			panic(err)
		}
		job := &latency.BatchJob{VM: vm, Work: 50}
		base, _ := job.Run(s, 0, 0)
		slowdowns = append(slowdowns, float64(base)*cfg.PerfPenalty()/float64(base))
	}
	perf := (stats.Mean(slowdowns) - 1) * 100

	// Utilisation: place the same VM population with and without dedicated
	// cores and compare allocated-capacity utilisation; then add the
	// over-provisioning penalty the paper quotes.
	packVMs := func(dedicated bool) float64 {
		scfg := sim.ServerConfig{DedicatedCores: dedicated}
		s := sim.NewServer("s0", scfg)
		placedVCPUs := 0
		for i := 0; ; i++ {
			vcpus := 1 + rng.Intn(4)
			vm := &sim.VM{ID: fmt.Sprintf("vm-%d", i), VCPUs: vcpus, App: probe.NewKernels(0)}
			if err := s.Place(vm); err != nil {
				break
			}
			placedVCPUs += vcpus
		}
		return 100 * float64(placedVCPUs) / float64(s.TotalVCPUs())
	}
	sharedUtil := packVMs(false)
	dedicatedUtil := packVMs(true)

	tb := trace.NewTable("Cost of core isolation", "Metric", "Value")
	tb.Add("mean execution-time penalty", fmt.Sprintf("%.0f%%", perf))
	tb.Add("vCPU utilisation, shared cores", fmt.Sprintf("%.0f%%", sharedUtil))
	tb.Add("vCPU utilisation, dedicated cores", fmt.Sprintf("%.0f%%", dedicatedUtil))
	tb.Add("over-provisioning utilisation drop", fmt.Sprintf("%.0f%%", cfg.UtilizationPenalty()*100))
	rep.Tables = append(rep.Tables, tb)

	rep.Metrics["perf_penalty_pct"] = perf
	rep.Metrics["shared_util"] = sharedUtil
	rep.Metrics["dedicated_util"] = dedicatedUtil
	rep.Metrics["overprovision_drop_pct"] = cfg.UtilizationPenalty() * 100
	rep.Notes = append(rep.Notes,
		"paper: 34% average performance penalty, or a 45% utilisation drop when over-provisioning instead")
	return rep
}
