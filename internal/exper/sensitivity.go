package exper

import (
	"fmt"

	"bolt/internal/core"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/trace"
	"bolt/internal/workload"
)

// Figure8 reproduces Fig. 8: a 4-vCPU victim instance runs five
// consecutive jobs (SPEC → Hadoop → Spark → memcached → Cassandra) over
// seven minutes; Bolt re-detects every 20 s and the figure shows the
// victim's resource pressure over time plus where each phase change is
// caught.
func Figure8(seed uint64) *Report {
	rep := newReport("fig8", "Workload phase detection")
	rng := stats.NewRNG(seed ^ 0xf168)

	det := core.TrainCached(workload.TrainingSpecs(seed), core.Config{})

	const phaseSecs = 84 // 5 phases over ~7 minutes
	phaseDur := sim.Tick(phaseSecs * sim.TicksPerSecond)
	phases := []workload.Phase{
		{Spec: workload.SpecCPU(rng.Split(), 0), Pattern: workload.Constant{Level: 0.95}, Duration: phaseDur},
		{Spec: workload.Hadoop(rng.Split(), 3), Pattern: workload.Constant{Level: 0.9}, Duration: phaseDur},
		{Spec: workload.Spark(rng.Split(), 1), Pattern: workload.Constant{Level: 0.9}, Duration: phaseDur},
		{Spec: workload.Memcached(rng.Split(), 2), Pattern: workload.Constant{Level: 0.95}, Duration: phaseDur},
		{Spec: workload.Cassandra(rng.Split(), 1), Pattern: workload.Constant{Level: 0.9}, Duration: phaseDur},
	}
	seq := workload.NewSequence(phases, rng.Uint64())

	s := sim.NewServer("s0", sim.ServerConfig{})
	victim := &sim.VM{ID: "victim", VCPUs: 4, App: seq}
	if err := s.Place(victim); err != nil {
		panic(err)
	}
	adv := probe.NewAdversary("bolt", 4, probe.Config{}, rng.Split())
	if err := s.Place(adv.VM); err != nil {
		panic(err)
	}

	const detectEverySec = 20
	total := phaseDur * sim.Tick(len(phases))
	fig := trace.NewFigure("Fig 8: victim resource pressure over time",
		"time (s)", "pressure (%)")
	series := map[sim.Resource][]float64{}
	var times []float64

	detections, correct := 0, 0
	tb := trace.NewTable("Detections over the timeline", "t (s)", "active phase", "detected", "match")
	// This timeline is genuinely sequential and stays off the episode
	// pool: every interval re-detects on the same server with the same
	// adversary, whose measurement-noise stream and kernel state carry
	// over from one interval to the next.
	for t := sim.Tick(0); t < total; t += detectEverySec * sim.TicksPerSecond {
		// Record the ground-truth demand for the pressure plot.
		d := seq.Demand(t)
		times = append(times, t.Seconds())
		for _, r := range sim.AllResources() {
			series[r] = append(series[r], d.Get(r))
		}

		// Fresh episode each interval: phase changes invalidate previous
		// observations (§3.3: detection repeats periodically).
		res := det.Detect(s, adv, t, 1)
		active := seq.ActiveSpec(t)
		match := core.LabelMatches(res.Result.Best().Label, active.Label) ||
			core.ClassMatches(res.Result.Best().Label, active.Class)
		detections++
		if match {
			correct++
		}
		tb.Add(fmt.Sprintf("%.0f", t.Seconds()), active.Label, res.Result.Best().Label,
			fmt.Sprintf("%v", match))
	}
	for _, r := range sim.AllResources() {
		fig.AddSeries(r.String(), times, series[r])
	}
	rep.Figures = append(rep.Figures, fig)
	rep.Tables = append(rep.Tables, tb)
	rep.Metrics["timeline_detections"] = float64(detections)
	rep.Metrics["timeline_accuracy"] = 100 * float64(correct) / float64(detections)
	rep.Notes = append(rep.Notes,
		"paper: phase changes (SPEC→Hadoop→Spark→memcached→Cassandra) captured within a few seconds")
	return rep
}

// Figure10 reproduces Fig. 10: detection accuracy as a function of (a) the
// profiling interval against phase-changing victims, (b) the adversarial
// VM size, and (c) the number of profiling microbenchmarks.
func Figure10(seed uint64) *Report {
	rep := newReport("fig10", "Sensitivity analysis")
	det := core.TrainCached(workload.TrainingSpecs(seed), core.Config{})

	rep.Figures = append(rep.Figures,
		fig10aInterval(seed, det, rep),
		fig10bVMSize(seed, det, rep),
		fig10cBenchmarks(seed, rep),
	)
	rep.Notes = append(rep.Notes,
		"paper: accuracy collapses past 30 s intervals; <4 vCPU adversaries are blind; >3 benchmarks have diminishing returns")
	return rep
}

// fig10aInterval: victims change phases (mean ~5 min); a detection made at
// time t is considered correct for the whole interval if the label matched
// the active phase both when it was made and at the interval's end. Longer
// intervals go stale as phases change underneath.
func fig10aInterval(seed uint64, det *core.Detector, rep *Report) *trace.Figure {
	rng := stats.NewRNG(seed ^ 0xf1601)
	intervals := []float64{5, 10, 20, 30, 60, 120, 180, 300}

	const trials = 30
	meanPhaseSec := 300.0
	var xs, ys []float64
	// Each trial builds a private server/victim/adversary, so the trials of
	// every interval fan out on the episode pool: streams are pre-split
	// serially (one per trial), bodies consume only their own stream, and
	// the hit counts fold back in trial order.
	hits := make([]bool, trials)
	for _, intervalSec := range intervals {
		trialRngs := rng.SplitN(trials)
		forEachEpisode(trials, func(tr int) {
			trng := trialRngs[tr]
			// Build a phase-changing victim.
			var phases []workload.Phase
			gens := workload.Generators()
			for p := 0; p < 8; p++ {
				g := gens[trng.Intn(len(gens))]
				phases = append(phases, workload.Phase{
					Spec:     g.Make(trng.Split(), trng.Intn(24)),
					Pattern:  workload.Constant{Level: trng.Range(0.85, 1)},
					Duration: sim.Tick(trng.Exp(meanPhaseSec) * sim.TicksPerSecond),
				})
			}
			seq := workload.NewSequence(phases, trng.Uint64())
			s := sim.NewServer("s0", sim.ServerConfig{})
			if err := s.Place(&sim.VM{ID: "v", VCPUs: 3, App: seq}); err != nil {
				panic(err)
			}
			adv := probe.NewAdversary("bolt", 4, probe.Config{}, trng.Split())
			if err := s.Place(adv.VM); err != nil {
				panic(err)
			}

			// One detection at t0; checked against the phase at a random
			// point within the following interval.
			t0 := sim.Tick(trng.Range(0, 120) * sim.TicksPerSecond)
			res := det.Detect(s, adv, t0, 1)
			check := t0 + sim.Tick(trng.Range(0, intervalSec)*sim.TicksPerSecond)
			active := seq.ActiveSpec(check)
			hits[tr] = core.LabelMatches(res.Result.Best().Label, active.Label)
		})
		correct, total := 0, trials
		for _, hit := range hits {
			if hit {
				correct++
			}
		}
		acc := 100 * float64(correct) / float64(total)
		xs = append(xs, intervalSec)
		ys = append(ys, acc)
		rep.Metrics[fmt.Sprintf("interval_%.0fs", intervalSec)] = acc
	}
	fig := trace.NewFigure("Fig 10a: accuracy vs profiling interval",
		"profiling interval (s)", "accuracy (%)")
	fig.AddSeries("accuracy", xs, ys)
	return fig
}

// fig10bVMSize: single-victim detection accuracy as the adversarial VM
// grows from 1 to 32 vCPUs on a 32-vCPU host (the EC2 instance sizes).
func fig10bVMSize(seed uint64, det *core.Detector, rep *Report) *trace.Figure {
	rng := stats.NewRNG(seed ^ 0xf1602)
	sizes := []int{1, 2, 4, 8, 16, 28}
	const trials = 40

	var xs, ys []float64
	hits := make([]bool, trials)
	for _, size := range sizes {
		victims := workload.VictimSpecs(seed^uint64(size), trials)
		// Pre-split one stream per trial, fan the trials out, count in order.
		trialRngs := rng.SplitN(trials)
		forEachEpisode(trials, func(tr int) {
			trng := trialRngs[tr]
			hits[tr] = false
			s := sim.NewServer("s0", sim.ServerConfig{Cores: 16, ThreadsPerCore: 2})
			spec := victims[tr]
			app := workload.NewApp(spec, workload.Constant{Level: trng.Range(0.85, 1)}, trng.Uint64())
			if err := s.Place(&sim.VM{ID: "v", VCPUs: 3, App: app}); err != nil {
				panic(err)
			}
			adv := probe.NewAdversary("bolt", size, probe.Config{}, trng.Split())
			if err := s.Place(adv.VM); err != nil {
				return
			}
			res := det.Detect(s, adv, sim.Tick(tr*5000), 1)
			hits[tr] = core.LabelMatches(res.Result.Best().Label, spec.Label)
		})
		correct := 0
		for _, hit := range hits {
			if hit {
				correct++
			}
		}
		acc := 100 * float64(correct) / float64(trials)
		xs = append(xs, float64(size))
		ys = append(ys, acc)
		rep.Metrics[fmt.Sprintf("vmsize_%dvcpu", size)] = acc
	}
	fig := trace.NewFigure("Fig 10b: accuracy vs adversarial VM size",
		"adversarial VM size (vCPUs)", "accuracy (%)")
	fig.AddSeries("accuracy", xs, ys)
	return fig
}

// fig10cBenchmarks: single-iteration detection accuracy vs the number of
// profiling microbenchmarks (1 = the core benchmark alone).
func fig10cBenchmarks(seed uint64, rep *Report) *trace.Figure {
	rng := stats.NewRNG(seed ^ 0xf1603)
	counts := []int{1, 2, 3, 4, 6, 8, 10}
	const trials = 40

	var xs, ys []float64
	hits := make([]bool, trials)
	for _, n := range counts {
		detN := core.TrainCached(workload.TrainingSpecs(seed), core.Config{ExtraBench: max(0, n-2)})
		victims := workload.VictimSpecs(seed^uint64(n)<<8, trials)
		// Pre-split one stream per trial, fan the trials out, count in order.
		trialRngs := rng.SplitN(trials)
		forEachEpisode(trials, func(tr int) {
			trng := trialRngs[tr]
			s := sim.NewServer("s0", sim.ServerConfig{})
			spec := victims[tr]
			app := workload.NewApp(spec, workload.Constant{Level: trng.Range(0.85, 1)}, trng.Uint64())
			if err := s.Place(&sim.VM{ID: "v", VCPUs: 3, App: app}); err != nil {
				panic(err)
			}
			adv := probe.NewAdversary("bolt", 4, probe.Config{}, trng.Split())
			if err := s.Place(adv.VM); err != nil {
				panic(err)
			}
			var best string
			if n == 1 {
				// A single benchmark: one core ramp only, no uncore.
				p := adv.ProfileCore(s, sim.Tick(tr*5000))
				obs, known := p.Observed.Slice(), p.Known[:]
				res := detN.Rec.Detect(obs, known)
				best = res.Best().Label
			} else {
				res := detN.NewEpisode(s, adv).Step(sim.Tick(tr * 5000))
				best = res.Best().Label
			}
			hits[tr] = core.LabelMatches(best, spec.Label)
		})
		correct := 0
		for _, hit := range hits {
			if hit {
				correct++
			}
		}
		acc := 100 * float64(correct) / float64(trials)
		xs = append(xs, float64(n))
		ys = append(ys, acc)
		rep.Metrics[fmt.Sprintf("benchmarks_%d", n)] = acc
	}
	fig := trace.NewFigure("Fig 10c: accuracy vs number of profiling benchmarks",
		"benchmarks per iteration", "accuracy (%)")
	fig.AddSeries("accuracy", xs, ys)
	return fig
}
