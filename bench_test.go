// Package main_test holds the benchmark harness of deliverable (d): one
// testing.B benchmark per table and figure of the paper's evaluation, plus
// the design-choice ablations DESIGN.md calls out. Each benchmark runs the
// corresponding experiment end to end and reports its headline metrics as
// custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. The per-experiment index in DESIGN.md maps each
// benchmark to the paper artefact it reproduces; EXPERIMENTS.md records
// paper-vs-measured values.
package main_test

import (
	"fmt"
	"sort"
	"testing"

	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/exper"
	"bolt/internal/fleet"
	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// benchSeed keeps every benchmark on the same deterministic inputs.
const benchSeed = 42

// runExperiment executes the registered experiment b.N times and reports
// its headline metrics.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exper.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var last *exper.Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last = e.Run(benchSeed)
	}
	b.StopTimer()
	keys := make([]string, 0, len(last.Metrics))
	for k := range last.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Custom metrics surface the reproduced numbers in the bench output.
	for _, k := range keys {
		b.ReportMetric(last.Metrics[k], k)
	}
}

// --- Tables ---

// BenchmarkTable1DetectionAccuracy regenerates Table 1: per-class detection
// accuracy under the least-loaded and Quasar schedulers.
func BenchmarkTable1DetectionAccuracy(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2RFA regenerates Table 2: resource-freeing attack impact on
// the three victims and the beneficiary.
func BenchmarkTable2RFA(b *testing.B) { runExperiment(b, "table2") }

// --- Figures ---

// BenchmarkFigure2Heatmaps regenerates Fig. 2: P(memcached) as a function
// of resource-pressure pairs.
func BenchmarkFigure2Heatmaps(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFigure4Coverage regenerates Fig. 4: training-set coverage of the
// resource-characteristics space.
func BenchmarkFigure4Coverage(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5StarCharts regenerates Fig. 5: within-framework resource
// profiles and similarity scores.
func BenchmarkFigure5StarCharts(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure6CoResidents regenerates Fig. 6: accuracy vs co-resident
// count and vs dominant resource.
func BenchmarkFigure6CoResidents(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7Iterations regenerates Fig. 7: the PDF of iterations
// until detection.
func BenchmarkFigure7Iterations(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFigure8PhaseTimeline regenerates Fig. 8: phase-change detection
// over a five-phase victim.
func BenchmarkFigure8PhaseTimeline(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFigure9PressureAccuracy regenerates Fig. 9: accuracy vs victim
// pressure per resource.
func BenchmarkFigure9PressureAccuracy(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFigure10Sensitivity regenerates Fig. 10: the profiling-interval,
// VM-size, and benchmark-count sweeps.
func BenchmarkFigure10Sensitivity(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFigure11StudyPDF regenerates Fig. 11: the user-study application
// type PDF.
func BenchmarkFigure11StudyPDF(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFigure12StudyAccuracy regenerates Fig. 12: user-study label and
// characteristics accuracy plus instance occupancy.
func BenchmarkFigure12StudyAccuracy(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFigure13DoSTimeline regenerates Fig. 13: tail latency and CPU
// utilisation under the Bolt vs naive DoS with the migration defence.
func BenchmarkFigure13DoSTimeline(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFigure14Isolation regenerates Fig. 14: detection accuracy under
// the isolation-mechanism stacks on all three platforms.
func BenchmarkFigure14Isolation(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkConfusion regenerates the §3.4 misclassification analysis.
func BenchmarkConfusion(b *testing.B) { runExperiment(b, "confusion") }

// BenchmarkInsights regenerates the §3.2 per-resource information-value
// analysis.
func BenchmarkInsights(b *testing.B) { runExperiment(b, "insights") }

// --- Text results ---

// BenchmarkDoSImpact regenerates the §5.1 aggregate DoS impact numbers.
func BenchmarkDoSImpact(b *testing.B) { runExperiment(b, "dosimpact") }

// BenchmarkCoResidency regenerates the §5.3 co-residency attack outcome.
func BenchmarkCoResidency(b *testing.B) { runExperiment(b, "coresidency") }

// BenchmarkDefenceEvasion regenerates the §5.1 evasion analysis: which
// provider-side detectors each attack trips.
func BenchmarkDefenceEvasion(b *testing.B) { runExperiment(b, "defence") }

// BenchmarkIsolationCost regenerates the §6 performance/utilisation cost of
// core isolation.
func BenchmarkIsolationCost(b *testing.B) { runExperiment(b, "isocost") }

// --- Ablations (DESIGN.md design choices) ---

// BenchmarkAblations runs the full ablation suite in one report.
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablation") }

// ablationRun measures controlled-experiment accuracy under one detector
// configuration at half scale.
func ablationRun(b *testing.B, cfg core.Config) {
	b.Helper()
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det := core.Train(workload.TrainingSpecs(benchSeed), cfg)
		res := exper.RunControlled(exper.ControlledConfig{
			Seed: benchSeed, Servers: 20, Victims: 54, Detector: det,
		})
		acc = res.Accuracy()
	}
	b.StopTimer()
	b.ReportMetric(acc, "accuracy_%")
}

// BenchmarkAblationPureCF measures label accuracy with the content-based
// stage disabled (pure collaborative filtering cannot label victims).
func BenchmarkAblationPureCF(b *testing.B) {
	ablationRun(b, core.Config{Recommender: mining.RecommenderConfig{PureCF: true}})
}

// BenchmarkAblationUnweightedPearson measures accuracy with Eq. 1's σ
// weights replaced by the classic coefficient.
func BenchmarkAblationUnweightedPearson(b *testing.B) {
	ablationRun(b, core.Config{Recommender: mining.RecommenderConfig{Unweighted: true}})
}

// BenchmarkAblationEnergy sweeps the SVD energy-retention rule.
func BenchmarkAblationEnergy(b *testing.B) {
	for _, energy := range []float64{0.5, 0.9, 0.99} {
		energy := energy
		b.Run(percentName(energy), func(b *testing.B) {
			ablationRun(b, core.Config{Recommender: mining.RecommenderConfig{EnergyFraction: energy}})
		})
	}
}

func percentName(f float64) string {
	switch {
	case f >= 0.99:
		return "energy99"
	case f >= 0.9:
		return "energy90"
	default:
		return "energy50"
	}
}

// BenchmarkAblationShutter measures accuracy with shutter profiling off.
func BenchmarkAblationShutter(b *testing.B) {
	ablationRun(b, core.Config{DisableShutter: true})
}

// BenchmarkAblationMRC measures accuracy with the miss-ratio-curve probe
// (the §3.3 future-work extension) off.
func BenchmarkAblationMRC(b *testing.B) {
	ablationRun(b, core.Config{DisableMRC: true})
}

// --- Microbenchmarks of the hot paths ---

// BenchmarkRecommenderDetect measures one sparse detection through the
// hybrid recommender (the paper reports an 80 ms p95 end-to-end latency),
// by how many of the ten resources are known: nk3 is the LLC/MemBW/NetBW
// observation of a first profiling pass, nk10 a fully profiled victim. Six
// or seven known is the shape where 2000 fold-in sweeps are furthest from
// converged; every count must cost about the same (CI gates nk6 and nk7
// against nk3). Each iteration takes the next of a fixed ring of seeded
// observations, so no count is timed on one lucky vector.
func BenchmarkRecommenderDetect(b *testing.B) {
	specs := workload.TrainingSpecs(benchSeed)
	det := core.Train(specs, core.Config{})
	rng := stats.NewRNG(benchSeed)
	ring := make([][]float64, 16)
	for i := range ring {
		ring[i] = specs[i].Base.Slice()
		for j := range ring[i] {
			ring[i][j] = stats.Clamp(ring[i][j]+rng.Norm(0, 5), 0, 100)
		}
	}
	// Resources in the order they become known: LLC, MemBW, NetBW first.
	order := []int{3, 5, 7, 6, 0, 4, 1, 8, 2, 9}
	for _, nk := range []int{1, 3, 6, 7, 10} {
		known := make([]bool, len(order))
		for _, j := range order[:nk] {
			known[j] = true
		}
		b.Run(fmt.Sprintf("nk%d", nk), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				det.Rec.Detect(ring[i%len(ring)], known)
			}
		})
	}
}

// BenchmarkSVD measures the one-sided Jacobi SVD of a training-sized
// matrix.
func BenchmarkSVD(b *testing.B) {
	specs := workload.TrainingSpecs(benchSeed)
	rows := make([][]float64, len(specs))
	for i, s := range specs {
		rows[i] = s.Base.Slice()
	}
	m := mining.FromRows(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mining.ComputeSVD(m)
	}
}

// BenchmarkTrain measures full detector training (SVD + SGD completion).
func BenchmarkTrain(b *testing.B) {
	specs := workload.TrainingSpecs(benchSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Train(specs, core.Config{})
	}
}

// BenchmarkTrainCached measures the memoized path: after the first call the
// suite's ~20 training passes collapse to a fingerprint and a map lookup.
func BenchmarkTrainCached(b *testing.B) {
	specs := workload.TrainingSpecs(benchSeed)
	core.TrainCached(specs, core.Config{}) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.TrainCached(specs, core.Config{})
	}
}

// --- Simulator hot paths ---

// simTickWorld builds the observation-plane benchmark world: an 8-core host
// carrying a reactive victim, a plain batch app, a diurnal service, and a
// 4-vCPU adversary — the co-residency mix the DoS timeline and RFA loops
// walk every tick.
func simTickWorld() (*sim.Server, *sim.VM, *probe.Adversary) {
	rng := stats.NewRNG(benchSeed)
	s := sim.NewServer("bench", sim.ServerConfig{})
	vspec := workload.Memcached(rng.Split(), 1)
	vspec.Jitter = 0
	vapp := workload.NewReactive(workload.NewApp(vspec, workload.Constant{Level: 0.9}, rng.Uint64()))
	victim := &sim.VM{ID: "victim", VCPUs: 3, App: vapp}
	if err := s.Place(victim); err != nil {
		panic(err)
	}
	vapp.Bind(s, victim)
	bspec := workload.Hadoop(rng.Split(), 0)
	bspec.Jitter = 0
	batch := &sim.VM{ID: "batch", VCPUs: 2, App: workload.NewApp(bspec, workload.Batch{Ramp: 10, Level: 0.95}, rng.Uint64())}
	if err := s.Place(batch); err != nil {
		panic(err)
	}
	wspec := workload.Webserver(rng.Split(), 0)
	wspec.Jitter = 0
	web := &sim.VM{ID: "web", VCPUs: 2, App: workload.NewApp(wspec, workload.Diurnal{Min: 0.2, Max: 0.9, Period: 1000}, rng.Uint64())}
	if err := s.Place(web); err != nil {
		panic(err)
	}
	adv := probe.NewAdversary("adv", 4, probe.Config{}, rng.Split())
	if err := s.Place(adv.VM); err != nil {
		panic(err)
	}
	return s, victim, adv
}

// BenchmarkSimTick measures one simulator observation tick: the adversary's
// observed vector, the victim's slowdown, and the host CPU utilisation —
// the per-tick work of the fig13 DoS timeline and the Table 2 RFA loops.
// The tick advances every iteration, so this prices a full observation-
// plane snapshot build plus the fused reads, not a warm-cache hit.
func BenchmarkSimTick(b *testing.B) {
	s, victim, adv := simTickWorld()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := sim.Tick(i)
		v := s.ObservedVector(adv.VM, t)
		sink += v.Get(sim.LLC) + s.Slowdown(victim, t) + s.CPUUtilization(t)
	}
	_ = sink
}

// BenchmarkEpisodeStep measures one detection-episode step end to end:
// profiling ramps against the simulated host plus the recommender passes —
// the unit of work Table 1, Fig. 10, and Fig. 12 repeat thousands of times.
//
// The episode is warmed past its escalation ladder (core signatures,
// uncore completion, MRC probe, shutter) before the timer starts, so the
// reported cost is the steady-state step the suite actually repeats — and
// the number is stable across -benchtime instead of being dominated by the
// ladder's one-off work at small iteration counts.
func BenchmarkEpisodeStep(b *testing.B) {
	det := core.TrainCached(workload.TrainingSpecs(benchSeed), core.Config{})
	s, _, adv := simTickWorld()
	e := det.NewEpisode(s, adv)
	const warmup = 20
	for i := 0; i < warmup; i++ {
		e.Step(sim.Tick(i * 100))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step(sim.Tick((warmup + i) * 100))
	}
}

// BenchmarkEpisodeCandidates measures one §3.3 mixture search
// (Episode.Candidates), the call the controlled experiments make after
// every step of every host episode. The corpus is fixed: 16 hosts carrying
// 2–4 catalog applications, half of them with a bursty tenant, each
// episode stepped six times (through its escalation ladder) before the
// timer starts. Each iteration searches the next episode of the ring, so
// ns/op is the corpus mean; every episode has searched once already, so
// allocs/op counts only the returned results.
func BenchmarkEpisodeCandidates(b *testing.B) {
	det := core.TrainCached(workload.TrainingSpecs(benchSeed), core.Config{})
	rng := stats.NewRNG(benchSeed)
	gens := workload.Generators()
	eps := make([]*core.Episode, 16)
	for h := range eps {
		s := sim.NewServer(fmt.Sprintf("h%d", h), sim.ServerConfig{})
		adv := probe.NewAdversary("adv", 4, probe.Config{}, rng.Split())
		if err := s.Place(adv.VM); err != nil {
			b.Fatal(err)
		}
		for v := 0; v < 2+h%3; v++ {
			spec := gens[rng.Intn(len(gens))].Make(rng.Split(), rng.Intn(24))
			var load workload.LoadPattern = workload.Constant{Level: rng.Range(0.8, 1)}
			if v == 0 && h%2 == 0 {
				load = workload.Bursty{OnLevel: 0.95, OffLevel: 0.3, OnTicks: 100, OffTicks: 40}
			}
			vm := &sim.VM{ID: fmt.Sprintf("v%d", v), VCPUs: 1 + rng.Intn(3), App: workload.NewApp(spec, load, rng.Uint64())}
			if err := s.Place(vm); err != nil {
				b.Fatal(err)
			}
		}
		e := det.NewEpisode(s, adv)
		for it := 0; it < 6; it++ {
			e.Step(0)
		}
		eps[h] = e
	}
	for _, maxV := range []int{2, 3} {
		b.Run(fmt.Sprintf("max%d", maxV), func(b *testing.B) {
			for _, e := range eps {
				e.Candidates(maxV)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eps[i%len(eps)].Candidates(maxV)
			}
		})
	}
}

// --- The experiment runner ---

// benchRunner runs the full suite through exper.Run at a given parallelism.
// Comparing Suite/parallel1 against Suite/parallel4 (or higher) on a
// multi-core host shows the runner's speedup — the acceptance bar is ≥2x at
// parallel≥4; on a single-core host the two collapse to the same wall
// clock. Results are identical at every level, so the comparison is pure
// scheduling.
func benchRunner(b *testing.B, parallel int) {
	b.Helper()
	exps := exper.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exper.Run(exps, benchSeed, parallel)
	}
}

func BenchmarkSuite(b *testing.B) {
	for _, parallel := range []int{1, 2, 4, 8} {
		parallel := parallel
		b.Run(fmt.Sprintf("parallel%d", parallel), func(b *testing.B) {
			benchRunner(b, parallel)
		})
	}
}

// --- The fleet tick engine ---

// benchFleetTick advances a populated fleet span ticks per iteration on
// the sharded engine (span 1 is Engine.Tick; span 16 is the attack
// campaign's probe window), with every server running the representative
// monitor body (one RNG draw, two observation-plane reads, a data-dependent
// event). ns/op is per Advance call; ticks/s and server-ticks/s are per
// *tick*, so rows of different spans compare directly. Output is
// byte-identical at every worker count, so */workersN sweeps measure pure
// scheduling — this sweep is where fleet.minShardServerTicks comes from
// (DESIGN.md "Fleet tick barrier").
func benchFleetTick(b *testing.B, servers, span, workers int) {
	b.Helper()
	fleet.SetShardWorkers(workers)
	defer fleet.SetShardWorkers(0)

	rng := stats.NewRNG(benchSeed)
	cl := cluster.New(servers, sim.ServerConfig{}, cluster.LeastLoaded{})
	mk := []func(*stats.RNG, int) workload.Spec{
		workload.Memcached, workload.Hadoop, workload.Spark,
	}
	for i, s := range cl.Servers {
		for j := 0; j < 5; j++ {
			spec := mk[(i+j)%len(mk)](rng.Split(), i+j)
			app := workload.NewApp(spec, workload.Constant{Level: 0.35}, rng.Uint64())
			vm := &sim.VM{ID: fmt.Sprintf("vm-%d-%d", i, j), VCPUs: 1 + (i+j)%3, App: app}
			if err := s.Place(vm); err != nil {
				b.Fatal(err)
			}
		}
	}
	engine := fleet.NewEngine(cl, rng.Split())
	monitor := func(w *fleet.World) {
		r := sim.Resource(w.RNG.Intn(sim.NumResources))
		p := w.Server.ObservedPressure(nil, r, w.Tick) +
			w.Server.ObservedPressure(nil, sim.DiskBW, w.Tick)
		if p > 120 {
			w.Emit(int(r), "", p)
		}
	}
	engine.Advance(0, span, monitor) // warm the demand memos and event buffers

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Advance(sim.Tick((i+1)*span), span, monitor)
	}
	b.StopTimer()
	perTick := b.Elapsed().Seconds() / float64(b.N*span)
	b.ReportMetric(1/perTick, "ticks/s")
	b.ReportMetric(float64(servers)/perTick, "server-ticks/s")
}

// BenchmarkFleetTick sweeps fleet size × span × shard workers. 256 servers
// is what the fleet experiments (and the benchmark's fleet workloads) run,
// 4096 the ISSUE's target datacenter (~20k VMs at 5 VMs/server), 1024 the
// size between them where a single tick first crosses the fan-out grain.
func BenchmarkFleetTick(b *testing.B) {
	for _, servers := range []int{256, 1024, 4096} {
		for _, span := range []int{1, 16} {
			for _, workers := range []int{1, 2, 4, 8} {
				servers, span, workers := servers, span, workers
				b.Run(fmt.Sprintf("servers%d/span%d/workers%d", servers, span, workers), func(b *testing.B) {
					benchFleetTick(b, servers, span, workers)
				})
			}
		}
	}
}
