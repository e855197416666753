package exper

import (
	"fmt"

	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/study"
	"bolt/internal/trace"
	"bolt/internal/workload"
)

// studyScale shrinks the 4-hour study to keep the harness fast while
// preserving its structure (arrival spread, 1-6 jobs per instance, idle
// instances). Time-scaling does not change detection, which operates on
// instantaneous pressure.
const studyScale = 20

// Figure11 reproduces Fig. 11: the PDF of application types launched in
// the user study, per user.
func Figure11(seed uint64) *Report {
	rep := newReport("fig11", "User study: application-type PDF")
	s := study.Generate(study.Config{Seed: seed})

	pdf := s.OccurrencePDF()
	tb := trace.NewTable("Fig 11: occurrences per application type",
		"Type", "Occurrences", "Share")
	for _, k := range pdf.Keys() {
		tb.Add(k, fmt.Sprintf("%d", pdf.Count(k)), fmt.Sprintf("%.1f%%", pdf.Share(k)))
	}
	rep.Tables = append(rep.Tables, tb)

	perUser := stats.NewCounter()
	for _, j := range s.Jobs {
		perUser.Add(fmt.Sprintf("user-%02d", j.User))
	}
	rep.Metrics["total_jobs"] = float64(len(s.Jobs))
	rep.Metrics["distinct_types"] = float64(len(pdf.Keys()))
	rep.Metrics["users"] = float64(len(perUser.Keys()))
	rep.Notes = append(rep.Notes, "paper: 436 jobs across 53 types from 20 users")
	return rep
}

// studyOutcome is the per-job result of the study detection run.
type studyOutcome struct {
	job           study.Job
	labelled      bool
	characterised bool
	activePeers   int
}

// runStudy places the study's jobs on the instance fleet, runs Bolt on
// every active instance at several points in (scaled) time, and scores
// each job at the detection nearest the middle of its lifetime.
func runStudy(seed uint64) ([]studyOutcome, *study.Study, []int, [][]int) {
	s := study.Generate(study.Config{Seed: seed})
	det := core.TrainCached(workload.TrainingSpecs(seed), core.Config{})
	rng := stats.NewRNG(seed ^ 0x57d7)

	// c3.8xlarge-like instances: 32 vCPUs (16 cores × 2), with a 4-vCPU
	// Bolt VM reserved on each.
	cl := cluster.New(s.Config.Instances, sim.ServerConfig{Cores: 16, ThreadsPerCore: 2},
		cluster.LeastLoaded{})
	advs := map[string]*probe.Adversary{}
	for _, srv := range cl.Servers {
		adv := probe.NewAdversary("bolt-"+srv.Name(), 4, probe.Config{}, rng.Split())
		if err := srv.Place(adv.VM); err != nil {
			continue
		}
		advs[srv.Name()] = adv
	}

	type placedJob struct {
		job  study.Job
		vm   *sim.VM
		host *sim.Server
	}
	var placed []placedJob
	for i, j := range s.Jobs {
		start := j.Start / studyScale
		app := workload.NewApp(j.Spec, j.Pattern, rng.Uint64())
		app.Start = start
		vm := &sim.VM{ID: fmt.Sprintf("job-%03d", i), VCPUs: j.VCPUs, App: app}
		host, err := cl.Place(vm, start)
		if err != nil {
			continue
		}
		placed = append(placed, placedJob{j, vm, host})
	}

	// Occupancy over time: active jobs per instance (Fig. 12c). The grid
	// is instances × time steps, the paper's heatmap.
	span := s.Config.Span / studyScale
	const timeSteps = 16
	active := func(p placedJob, t sim.Tick) bool {
		start := p.job.Start / studyScale
		return t >= start && t < start+p.job.Duration/studyScale
	}
	grid := make([][]int, len(cl.Servers))
	hostIndex := map[string]int{}
	for i, srv := range cl.Servers {
		grid[i] = make([]int, timeSteps)
		hostIndex[srv.Name()] = i
	}
	occupancy := make([]int, timeSteps)
	for step := 0; step < timeSteps; step++ {
		t := span / timeSteps * sim.Tick(step)
		for _, p := range placed {
			if active(p, t) {
				grid[hostIndex[p.host.Name()]][step]++
			}
		}
		for _, row := range grid {
			if row[step] > occupancy[step] {
				occupancy[step] = row[step]
			}
		}
	}

	// Detection: score each job at the midpoint of its lifetime. Hosts are
	// processed in a deterministic order.
	byHost := map[string][]placedJob{}
	for _, p := range placed {
		byHost[p.host.Name()] = append(byHost[p.host.Name()], p)
	}
	var outcomes []studyOutcome
	for _, hn := range stats.SortedKeys(byHost) {
		jobs := byHost[hn]
		adv, ok := advs[hn]
		if !ok {
			continue
		}
		host := jobs[0].host // advs is keyed by the server the adversary was placed on
		for _, p := range jobs {
			mid := p.job.Start/studyScale + p.job.Duration/studyScale/2
			peers := 0
			for _, q := range jobs {
				if active(q, mid) {
					peers++
				}
			}
			d := det.Detect(host, adv, mid, max(peers, 1))
			out := studyOutcome{job: p.job, activePeers: peers}
			for _, cand := range d.CoResidents {
				if core.LabelMatches(cand.Best().Label, p.job.Spec.Label) ||
					(p.job.Type.Trainable && core.ClassMatches(cand.Best().Label, p.job.Spec.Class)) {
					out.labelled = true
				}
				if core.CharacteristicsMatch(cand.Pressure, p.job.Spec.Base) {
					out.characterised = true
				}
			}
			if out.labelled {
				out.characterised = true
			}
			outcomes = append(outcomes, out)
		}
	}
	return outcomes, s, occupancy, grid
}

// Figure12 reproduces Fig. 12: how many study jobs Bolt labelled correctly
// (a), how many it characterised correctly (b), and the jobs-per-instance
// occupancy over time (c).
func Figure12(seed uint64) *Report {
	rep := newReport("fig12", "User study: detection accuracy")
	outcomes, s, occupancy, grid := runStudy(seed)

	labelled, characterised := 0, 0
	labelledByType := stats.NewCounter()
	totalByType := stats.NewCounter()
	for _, o := range outcomes {
		key := fmt.Sprintf("%02d:%s", o.job.Type.ID, o.job.Type.Name)
		totalByType.Add(key)
		if o.labelled {
			labelled++
			labelledByType.Add(key)
		}
		if o.characterised {
			characterised++
		}
	}

	tb := trace.NewTable("Fig 12a/b: per-type detection",
		"Type", "Jobs", "Labelled", "Trainable")
	types := study.Types()
	for _, k := range totalByType.Keys() {
		trainable := "no"
		for _, t := range types {
			if fmt.Sprintf("%02d:%s", t.ID, t.Name) == k && t.Trainable {
				trainable = "yes"
			}
		}
		tb.Add(k, fmt.Sprintf("%d", totalByType.Count(k)),
			fmt.Sprintf("%d", labelledByType.Count(k)), trainable)
	}
	rep.Tables = append(rep.Tables, tb)

	var xs, ys []float64
	for i, occ := range occupancy {
		xs = append(xs, float64(i))
		ys = append(ys, float64(occ))
	}
	fig := trace.NewFigure("Fig 12c: peak active jobs per instance over time",
		"time step", "max active jobs on any instance")
	fig.AddSeries("occupancy", xs, ys)
	rep.Figures = append(rep.Figures, fig)

	// The paper's heatmap: one row per instance, one column per time step,
	// shaded by the number of active jobs. Idle instances stay blank.
	heat := trace.NewHeatmap("Fig 12c: active jobs per instance over time",
		"instance", "time step", len(grid), len(grid[0]))
	idle := 0
	for i, row := range grid {
		rowTotal := 0
		for j, c := range row {
			heat.Set(i, j, float64(c))
			rowTotal += c
		}
		if rowTotal == 0 {
			idle++
		}
	}
	rep.Heatmaps = append(rep.Heatmaps, heat)
	rep.Metrics["idle_instances"] = float64(idle)

	rep.Metrics["jobs_total"] = float64(len(outcomes))
	rep.Metrics["jobs_submitted"] = float64(len(s.Jobs))
	rep.Metrics["jobs_labelled"] = float64(labelled)
	rep.Metrics["jobs_characterised"] = float64(characterised)
	rep.Metrics["label_rate"] = 100 * float64(labelled) / float64(len(outcomes))
	rep.Metrics["characterise_rate"] = 100 * float64(characterised) / float64(len(outcomes))
	rep.Notes = append(rep.Notes,
		"paper: 277/436 jobs labelled, 385/436 characterised; misses concentrate on instances with ≥5 active jobs")
	return rep
}
