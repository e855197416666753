package exper

import (
	"fmt"

	"bolt/internal/attack"
	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/latency"
	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/trace"
	"bolt/internal/workload"
)

// attackPlanConfig is the detector configuration for experiments that set
// contention-kernel intensities directly from the completed pressure vector
// (PlanDoS targets each critical resource at pressure + headroom). Those raw
// floats flow on into the latency simulation and out into the report, so the
// emitted bytes are sensitive to the completion solve at machine precision.
// The default fold-in computes the 2000th sweep iterate by matrix powers and
// lands within ~1e-12 of the sequential sweeps — far below anything the
// simulation resolves — but the suite's regression contract is
// byte-identical output across runs and code changes, so these experiments
// pin the historical sequential-sweep arithmetic. FixedFoldIn picks the
// fold-in path, not the factors, so this config gets a view of its own
// (mining.Base.View keys on it) of the catalog's one factorisation; every
// other experiment keeps the matrix-power fast path.
func attackPlanConfig() core.Config {
	return core.Config{Recommender: mining.RecommenderConfig{
		Completion: mining.CompletionConfig{FixedFoldIn: true},
	}}
}

// Figure13 reproduces Fig. 13: the p99 latency and host CPU utilisation
// over time for a memcached victim under Bolt's detection-guided DoS
// attack vs a naïve CPU-saturating DoS, with a live-migration defence that
// triggers on sustained >70% CPU utilisation.
func Figure13(seed uint64) *Report {
	rep := newReport("fig13", "DoS timeline: Bolt vs naive, with migration defence")
	rng := stats.NewRNG(seed ^ 0xf1613)
	det := core.TrainCached(workload.TrainingSpecs(seed), attackPlanConfig())

	type timeline struct {
		p99, cpu []float64
	}
	run := func(naive bool) timeline {
		cl := cluster.New(2, sim.ServerConfig{}, cluster.LeastLoaded{})
		spec := workload.Memcached(rng.Split(), 1)
		spec.Jitter = 0
		app := workload.NewApp(spec, workload.Constant{Level: 0.9}, rng.Uint64())
		victim := &sim.VM{ID: "victim", VCPUs: 3, App: app}
		host, err := cl.Place(victim, 0)
		if err != nil {
			panic(err)
		}
		adv := probe.NewAdversary("adv", 4, probe.Config{}, rng.Split())
		if err := host.Place(adv.VM); err != nil {
			panic(err)
		}
		svc := &latency.Service{VM: victim, Pattern: workload.Constant{Level: 0.9}}

		policy := cluster.DefaultMigrationPolicy()
		const (
			durationSec = 120
			detectAtSec = 10
			attackAtSec = 20
			sustainSec  = 60 // defence requires sustained overload
		)
		var tl timeline
		var plan attack.DoSPlan
		launched := false
		overloadSince := sim.Tick(-1)
		migrated := false
		var outageUntil sim.Tick

		for sec := 0; sec < durationSec; sec++ {
			t := sim.Tick(sec * sim.TicksPerSecond)
			if sec == detectAtSec {
				d := det.Detect(host, adv, t, 1)
				if naive {
					plan = attack.NaiveDoSPlan()
				} else {
					plan = attack.PlanDoS(d, 2)
				}
			}
			if sec == attackAtSec {
				attack.Launch(adv, plan)
				launched = true
			}

			cur := cl.HostOf("victim")
			var p99, cpu float64
			if outageUntil > t {
				// Mid-migration blackout: requests stall at the shedding
				// bound.
				p99 = svc.Baseline(t).P99Ms * 50
				cpu = cur.CPUUtilization(t)
			} else {
				p99 = svc.Measure(cur, t).P99Ms
				cpu = cur.CPUUtilization(t)
			}
			tl.p99 = append(tl.p99, p99)
			tl.cpu = append(tl.cpu, cpu)

			// Migration defence: sustained overload on the victim's host.
			if launched && !migrated && cur == host {
				if policy.ShouldMigrate(host, t) {
					if overloadSince < 0 {
						overloadSince = t
					}
					if t-overloadSince >= sim.Tick(sustainSec*sim.TicksPerSecond) {
						if _, err := cl.Migrate("victim", t); err == nil {
							migrated = true
							outageUntil = t + policy.OutageTicks
						}
					}
				} else {
					overloadSince = -1
				}
			}
		}
		_ = launched
		return tl
	}

	bolt := run(false)
	naive := run(true)

	times := make([]float64, len(bolt.p99))
	for i := range times {
		times[i] = float64(i)
	}
	figLat := trace.NewFigure("Fig 13a: 99th percentile latency", "time (s)", "p99 (ms)")
	figLat.AddSeries("Bolt", times, bolt.p99)
	figLat.AddSeries("Naive", times, naive.p99)
	figCPU := trace.NewFigure("Fig 13b: host CPU utilisation", "time (s)", "CPU (%)")
	figCPU.AddSeries("Bolt", times, bolt.cpu)
	figCPU.AddSeries("Naive", times, naive.cpu)
	rep.Figures = append(rep.Figures, figLat, figCPU)

	// Headline comparisons: what each attack achieves in the final phase
	// (after the naive attack's victim has been migrated away).
	tail := func(xs []float64) float64 { return stats.Mean(xs[len(xs)-20:]) }
	base := bolt.p99[5]
	rep.Metrics["bolt_final_p99_factor"] = tail(bolt.p99) / base
	rep.Metrics["naive_final_p99_factor"] = tail(naive.p99) / base
	rep.Metrics["bolt_peak_cpu"] = stats.Max(bolt.cpu)
	rep.Metrics["naive_peak_cpu"] = stats.Max(naive.cpu)
	rep.Notes = append(rep.Notes,
		"paper: both attacks degrade equally until the naive one trips migration at ~80 s; Bolt stays below the utilisation trigger and keeps hurting the victim")
	return rep
}

// DoSImpact reproduces the §5.1 aggregate: the detection-guided DoS run
// against each controlled-experiment victim, reporting execution-time
// dilation for batch victims and p99 inflation for interactive ones.
func DoSImpact(seed uint64) *Report {
	rep := newReport("dosimpact", "DoS aggregate impact")
	rng := stats.NewRNG(seed ^ 0xd05)
	det := core.TrainCached(workload.TrainingSpecs(seed), attackPlanConfig())

	interactive := map[string]bool{
		"memcached": true, "redis": true, "webserver": true,
		"mysql": true, "postgres": true, "cassandra": true, "mongodb": true,
	}

	var execSlow, tailFactors []float64
	victims := workload.VictimSpecs(seed, 108)
	for i, spec := range victims {
		s := sim.NewServer("s0", sim.ServerConfig{})
		spec.Jitter = 0
		app := workload.NewApp(spec, workload.Constant{Level: 0.9}, rng.Uint64())
		vm := &sim.VM{ID: "victim", VCPUs: 3, App: app}
		if err := s.Place(vm); err != nil {
			panic(err)
		}
		adv := probe.NewAdversary("adv", 4, probe.Config{}, rng.Split())
		if err := s.Place(adv.VM); err != nil {
			panic(err)
		}
		t := sim.Tick(i * 5000)
		d := det.Detect(s, adv, t, 1)
		attack.Launch(adv, attack.PlanDoS(d, 2))
		if interactive[spec.Class] {
			svc := &latency.Service{VM: vm, Pattern: workload.Constant{Level: 0.9}}
			tailFactors = append(tailFactors, svc.DegradationFactor(s, t+1000))
		} else {
			execSlow = append(execSlow, s.Slowdown(vm, t+1000))
		}
		attack.Stop(adv)
	}

	tb := trace.NewTable("DoS impact on the 108 controlled-experiment victims",
		"Metric", "Value")
	tb.Add("batch victims", fmt.Sprintf("%d", len(execSlow)))
	tb.Add("mean exec-time dilation", fmt.Sprintf("%.1fx", stats.Mean(execSlow)))
	tb.Add("max exec-time dilation", fmt.Sprintf("%.1fx", stats.Max(execSlow)))
	tb.Add("interactive victims", fmt.Sprintf("%d", len(tailFactors)))
	tb.Add("min p99 inflation", fmt.Sprintf("%.0fx", stats.Min(tailFactors)))
	tb.Add("max p99 inflation", fmt.Sprintf("%.0fx", stats.Max(tailFactors)))
	rep.Tables = append(rep.Tables, tb)

	rep.Metrics["mean_exec_slowdown"] = stats.Mean(execSlow)
	rep.Metrics["max_exec_slowdown"] = stats.Max(execSlow)
	rep.Metrics["min_tail_factor"] = stats.Min(tailFactors)
	rep.Metrics["max_tail_factor"] = stats.Max(tailFactors)
	rep.Notes = append(rep.Notes,
		"paper: 2.2x mean / 9.8x max execution time; 8-140x tail latency for interactive victims")
	return rep
}

// scoutIterations is how many profiling iterations the pre-attack scout
// runs. It matches the detector's default episode budget (§3.2, Fig. 7
// finds no benefit past six) but without the early-stop shortcut — the
// scout wants measured, not completed, pressure on every resource.
const scoutIterations = 6

// Table2 reproduces Table 2: resource-freeing attacks against an Apache
// webserver, a network-bound Hadoop job, and a memory-bound Spark job.
// Bolt first detects the victim's dominant resource (victim and adversary
// alone on the host, as in the attack flow), then the beneficiary is
// co-scheduled on the victim's cores and the helper saturates the detected
// resource. The beneficiary's critical resource must not overlap the
// helper's target (the paper's requirement): mcf for the webserver and
// Hadoop scenarios, a compute-bound benchmark for the Spark scenario where
// the helper itself saturates the memory bandwidth mcf depends on.
func Table2(seed uint64) *Report {
	rep := newReport("table2", "Resource-freeing attack impact")
	rng := stats.NewRNG(seed ^ 0x7ab1e2)
	det := core.TrainCached(workload.TrainingSpecs(seed), core.Config{})

	tb := trace.NewTable("Table 2: RFA impact",
		"Victim App", "Victim Perf", "Beneficiary", "Beneficiary Perf", "Target Resource")

	record := func(si int, name string, out attack.RFAOutcome, beneficiary string) {
		tb.Add(name,
			fmt.Sprintf("-%.0f%% (%s)", out.VictimDegradation, out.VictimMetric),
			beneficiary,
			fmt.Sprintf("%+.0f%%", out.BeneficiaryImprovement),
			out.Target.String())
		rep.Metrics[fmt.Sprintf("victim_degradation_%d", si)] = out.VictimDegradation
		rep.Metrics[fmt.Sprintf("beneficiary_improvement_%d", si)] = out.BeneficiaryImprovement
	}

	// buildHost places a 6-vCPU victim, then the 4-vCPU helper (the
	// adversarial VM that also runs detection), then the 6-vCPU
	// beneficiary, which straddles the victim's cores on the 8-core host —
	// the hyperthread coupling RFAs exploit.
	buildHost := func(victimApp sim.Demander, bspec workload.Spec, seedOff uint64) (*sim.Server, *sim.VM, *sim.VM, *probe.Adversary) {
		s := sim.NewServer("s0", sim.ServerConfig{})
		victimVM := &sim.VM{ID: "victim", VCPUs: 6, App: victimApp}
		if err := s.Place(victimVM); err != nil {
			panic(err)
		}
		helper := probe.NewAdversary("helper", 4, probe.Config{}, rng.Split())
		if err := s.Place(helper.VM); err != nil {
			panic(err)
		}
		bspec.Jitter = 0
		bapp := workload.NewApp(bspec, workload.Constant{Level: 0.95}, seedOff+1)
		benVM := &sim.VM{ID: "beneficiary", VCPUs: 6, App: bapp}
		if err := s.Place(benVM); err != nil {
			panic(err)
		}
		return s, victimVM, benVM, helper
	}

	// detectDominant finds the victim's dominant resource with only victim
	// and adversary on the host (the detection precedes the attack).
	detectDominant := func(vspec workload.Spec, fallback sim.Resource, seedOff uint64) sim.Resource {
		s := sim.NewServer("s0", sim.ServerConfig{})
		spec := vspec
		spec.Jitter = 0
		app := workload.NewApp(spec, workload.Constant{Level: 0.95}, seedOff)
		if err := s.Place(&sim.VM{ID: "victim", VCPUs: 6, App: app}); err != nil {
			panic(err)
		}
		adv := probe.NewAdversary("scout", 4, probe.Config{}, rng.Split())
		if err := s.Place(adv.VM); err != nil {
			panic(err)
		}
		// The scout profiles before the attack and is not time-constrained,
		// so it runs a full episode rather than stopping at the first strong
		// label match: a barely-over-threshold early stop can leave most
		// uncore resources estimated by completion instead of measured, and
		// an invented pressure entry here picks the wrong RFA target.
		e := det.NewEpisode(s, adv)
		var res *mining.Result
		for i := 0; i < scoutIterations; i++ {
			res = e.Step(0)
		}
		if !res.Confident() {
			return fallback
		}
		// An RFA helper streams through a resource; capacity resources
		// (memory/disk footprints) cannot be saturated that way, so the
		// target is the victim's top bandwidth/compute resource.
		pressure := sim.FromSlice(res.Pressure)
		for _, r := range pressure.TopK(sim.NumResources) {
			if r != sim.MemCap && r != sim.DiskCap {
				return r
			}
		}
		return fallback
	}

	// Scenario 0: Apache webserver. The "helper" is a flood of CGI
	// requests through the victim itself: the webserver saturates its CPU
	// serving them, sheds legitimate queries, and its cache/memory
	// footprint drains (CGI scripts are compute-heavy and cache-light) —
	// freeing exactly what mcf wants.
	{
		vspec := workload.Webserver(rng.Split(), 1)
		vspec.Jitter = 0
		bspec := workload.SpecCPU(rng.Split(), 0) // mcf: cache/memory-hungry

		target := detectDominant(vspec, sim.CPU, 100)
		_ = target // the CGI flood always manifests as CPU saturation

		// Baseline host: victim at normal load.
		normal := workload.NewApp(vspec, workload.Constant{Level: 0.95}, 100)
		s, victimVM, benVM, _ := buildHost(normal, bspec, 100)
		svc := &latency.Service{VM: victimVM, Pattern: workload.Constant{Level: 0.95},
			BaseServiceMs: 2, PeakRho: 0.7}
		base := svc.Measure(s, 0)
		ben := &latency.BatchJob{VM: benVM, Work: 300}
		baseBen, _ := ben.Run(s, 0, 0)

		// Attack host: the flooded webserver burns CPU and drains caches.
		flooded := vspec
		flooded.Base.Set(sim.CPU, 96)
		for _, r := range []sim.Resource{sim.L1I, sim.L1D, sim.LLC, sim.MemBW} {
			flooded.Base.Set(r, flooded.Base.Get(r)*0.45)
		}
		floodApp := workload.NewApp(flooded, workload.Constant{Level: 1}, 100)
		s2, _, benVM2, _ := buildHost(floodApp, bspec, 100)
		ben2 := &latency.BatchJob{VM: benVM2, Work: 300}
		attBen, _ := ben2.Run(s2, 0, 0)

		// Legitimate QPS under the flood: the saturated service serves at
		// capacity, shared with the CGI traffic.
		const legit, cgi = 0.95, 0.9
		rhoAtt := base.Utilization / legit * (legit + cgi)
		totalServed := (legit + cgi) * 100_000
		if rhoAtt >= 1 {
			totalServed /= rhoAtt
		}
		legitQPS := totalServed * legit / (legit + cgi)

		out := attack.RFAOutcome{
			Target:                 sim.CPU,
			VictimDegradation:      100 * (base.QPS - legitQPS) / base.QPS,
			BeneficiaryImprovement: 100 * (float64(baseBen) - float64(attBen)) / float64(baseBen),
			VictimMetric:           "QPS",
		}
		record(0, "Apache Webserver", out, "mcf")
	}

	// Scenario 1: network-bound Hadoop job; the helper saturates network
	// bandwidth (iperf-like), the victim stalls on the network and frees
	// CPU and memory for mcf.
	{
		vspec := hadoopNetBound(rng.Split())
		vspec.Jitter = 0
		bspec := workload.SpecCPU(rng.Split(), 0) // mcf
		target := detectDominant(vspec, sim.NetBW, 200)

		vapp := workload.NewReactive(workload.NewApp(vspec, workload.Constant{Level: 0.95}, 200))
		s, victimVM, benVM, helper := buildHost(vapp, bspec, 200)
		vapp.Bind(s, victimVM)

		rfa := &attack.RFA{Helper: helper, Target: target}
		out := attack.MeasureBatchRFA(rfa, s,
			&latency.BatchJob{VM: victimVM, Work: 300},
			&latency.BatchJob{VM: benVM, Work: 300}, 5000)
		record(1, "Hadoop (SVM)", out, "mcf")
	}

	// Scenario 2: memory-bound Spark k-means; the helper streams through
	// memory. mcf itself needs that bandwidth, so the beneficiary is a
	// compute-bound SPEC job (the paper's non-overlap condition).
	{
		vspec := workload.Spark(rng.Split(), 0) // kmeans
		vspec.Jitter = 0
		bspec := workload.SpecCPU(rng.Split(), 6) // gobmk: compute-bound
		target := detectDominant(vspec, sim.MemBW, 300)

		vapp := workload.NewReactive(workload.NewApp(vspec, workload.Constant{Level: 0.95}, 300))
		s, victimVM, benVM, helper := buildHost(vapp, bspec, 300)
		vapp.Bind(s, victimVM)

		rfa := &attack.RFA{Helper: helper, Target: target}
		out := attack.MeasureBatchRFA(rfa, s,
			&latency.BatchJob{VM: victimVM, Work: 300},
			&latency.BatchJob{VM: benVM, Work: 300}, 5000)
		record(2, "Spark (k-means)", out, "gobmk (CPU-bound)")
	}

	rep.Tables = append(rep.Tables, tb)
	rep.Notes = append(rep.Notes,
		"paper: victims -64%/-36%/-52%; beneficiary +24%/+16%/+38%; targets CPU / network BW / memory BW")
	return rep
}

// hadoopNetBound builds the network-bound Hadoop job of Table 2: a
// shuffle-heavy configuration whose dominant resource is the network.
func hadoopNetBound(rng *stats.RNG) workload.Spec {
	spec := workload.Hadoop(rng, 2) // sort: the most shuffle-bound variant
	spec.Base.Set(sim.NetBW, 82)
	spec.Base.Set(sim.DiskCap, 55)
	spec.Base.Set(sim.DiskBW, 58)
	spec.Label = "hadoop:svm-net:L"
	return spec
}

// CoResidencyExp reproduces the §5.3 evaluation: locating a single SQL
// server VM in a 40-node cluster that also hosts seven other SQL VMs plus
// key-value stores and analytics.
func CoResidencyExp(seed uint64) *Report {
	rep := newReport("coresidency", "VM co-residency detection")
	rng := stats.NewRNG(seed ^ 0xc07e5)
	det := core.TrainCached(workload.TrainingSpecs(seed), core.Config{})

	cl := cluster.New(40, sim.ServerConfig{}, cluster.LeastLoaded{})
	services := map[string]*latency.Service{}

	// The victim: one SQL VM whose latency the receiver can query.
	vspec := workload.SQLDatabase(rng.Split(), 0)
	vspec.Jitter = 0
	vapp := workload.NewApp(vspec, workload.Constant{Level: 0.9}, rng.Uint64())
	victimVM := &sim.VM{ID: "victim-sql", VCPUs: 4, App: vapp}
	victimHost, err := cl.Place(victimVM, 0)
	if err != nil {
		panic(err)
	}
	services[victimHost.Name()] = &latency.Service{
		VM: victimVM, Pattern: workload.Constant{Level: 0.9}, BaseServiceMs: 8,
	}

	// Seven other SQL VMs (decoys) plus a mixed population.
	for i := 0; i < 7; i++ {
		spec := workload.SQLDatabase(rng.Split(), i)
		spec.Jitter = 0
		app := workload.NewApp(spec, workload.Constant{Level: 0.9}, rng.Uint64())
		if _, err := cl.Place(&sim.VM{ID: fmt.Sprintf("sql-%d", i), VCPUs: 4, App: app}, 0); err != nil {
			panic(err)
		}
	}
	fillers := []func(*stats.RNG, int) workload.Spec{
		workload.Memcached, workload.Hadoop, workload.Spark,
	}
	for i := 0; i < 24; i++ {
		spec := fillers[i%len(fillers)](rng.Split(), i)
		spec.Jitter = 0
		app := workload.NewApp(spec, workload.Constant{Level: 0.9}, rng.Uint64())
		if _, err := cl.Place(&sim.VM{ID: fmt.Sprintf("filler-%d", i), VCPUs: 4, App: app}, 0); err != nil {
			panic(err)
		}
	}

	atk := &attack.CoResidency{
		Detector: det,
		Cluster:  cl,
		RNG:      rng.Split(),
		Receiver: func(h *sim.Server) *latency.Service { return services[h.Name()] },
	}
	// The paper launches 10 senders; retry with fresh placements until one
	// lands with the victim (each retry models a new simultaneous launch).
	// With 10 senders on 40 hosts each launch co-locates with probability
	// ~1/4, so the cap sits well above the expected ~4 launches to keep an
	// unlucky placement streak from ending the experiment empty-handed.
	var result attack.CoResidencyResult
	attempts := 0
	for ; attempts < 32; attempts++ {
		result = atk.Run(10, vspec.Class, 1, sim.Tick(attempts*20000))
		if result.Found {
			break
		}
	}

	tb := trace.NewTable("Co-residency detection outcome", "Metric", "Value")
	tb.Add("analytic P(f) per launch", fmt.Sprintf("%.2f", result.PlacementProbability))
	tb.Add("launches needed", fmt.Sprintf("%d", attempts+1))
	tb.Add("SQL candidates in sample", fmt.Sprintf("%d", result.Candidates))
	tb.Add("victim found", fmt.Sprintf("%v", result.Found))
	tb.Add("confirmation latency ratio", fmt.Sprintf("%.1fx", result.LatencyRatio))
	tb.Add("attack time", fmt.Sprintf("%.1fs", result.Ticks.Seconds()))
	tb.Add("adversary VMs", fmt.Sprintf("%d", result.SendersUsed+1)) // +1 receiver
	rep.Tables = append(rep.Tables, tb)

	rep.Metrics["found"] = b2f(result.Found)
	rep.Metrics["candidates"] = float64(result.Candidates)
	rep.Metrics["latency_ratio"] = result.LatencyRatio
	rep.Metrics["attack_seconds"] = result.Ticks.Seconds()
	rep.Metrics["placement_probability"] = result.PlacementProbability
	rep.Notes = append(rep.Notes,
		"paper: 10 senders, 3 SQL candidates detected, ~3x latency confirmation, 6 s, 11 adversary VMs")
	return rep
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
