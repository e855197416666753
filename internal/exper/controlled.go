package exper

import (
	"fmt"
	"sort"

	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/fault"
	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// ControlledConfig parameterises the §3.4 controlled experiment: a
// 40-server cluster, 108 victims placed by a scheduler, one 4-vCPU
// adversarial VM per server, and per-victim detection episodes that stop
// on correct identification or after maxIterations (the paper's
// methodology for Table 1 and Figs. 6-9).
type ControlledConfig struct {
	Seed      uint64
	Servers   int // 0 means 40
	Victims   int // 0 means 108
	Scheduler cluster.Scheduler
	ServerCfg sim.ServerConfig // zero value: 8 cores × 2 threads, full visibility
	ProbeCfg  probe.Config
	// Detector overrides training when non-nil (reused across sweeps to
	// avoid retraining, and how a sweep varies the detector's config).
	Detector *core.Detector
}

// The fixed parts of the §3.4 methodology: the adversary's size, the
// per-victim iteration budget (no benefit past six, Fig. 7), and the bound
// on victim sizes (uniform 1..max).
const (
	advVCPUs       = 4
	maxIterations  = 6
	maxVictimVCPUs = 6
)

func (c ControlledConfig) withDefaults() ControlledConfig {
	if c.Servers == 0 {
		c.Servers = 40
	}
	if c.Victims == 0 {
		c.Victims = 108
	}
	if c.Scheduler == nil {
		c.Scheduler = cluster.LeastLoaded{}
	}
	return c
}

// VictimRecord is the per-victim outcome of a controlled run.
type VictimRecord struct {
	Spec        workload.Spec
	CoResidents int // victims sharing the host (including this one)
	// CorrectIteration is the 1-based iteration at which the victim was
	// first correctly identified; 0 means never within maxIterations.
	CorrectIteration int
	Dominant         sim.Resource
	Ticks            sim.Tick
	// Confidence is the episode's final evidence score (episode-level: all
	// victims on one host share it), and Unknown whether the episode
	// degraded to "unknown" rather than guessing.
	Confidence float64
	Unknown    bool
}

// Correct reports whether the victim was identified within the budget.
func (r VictimRecord) Correct() bool { return r.CorrectIteration > 0 }

// ControlledResult aggregates a controlled run.
type ControlledResult struct {
	Records []VictimRecord
	// FaultCounts aggregates the per-class fault-injection counters across
	// every adversary in the run (all zero without a fault plane).
	FaultCounts [fault.NumClasses]uint64
}

// Accuracy returns the fraction of victims identified, in percent.
func (cr *ControlledResult) Accuracy() float64 {
	return cr.AccuracyWhere(func(VictimRecord) bool { return true })
}

// AccuracyWhere returns detection accuracy in percent over the records
// matching the filter; 0 when none match.
func (cr *ControlledResult) AccuracyWhere(keep func(VictimRecord) bool) float64 {
	total, correct := 0, 0
	for _, r := range cr.Records {
		if !keep(r) {
			continue
		}
		total++
		if r.Correct() {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(correct) / float64(total)
}

// ClassAccuracy returns per-class accuracy in percent for classes with at
// least one victim.
func (cr *ControlledResult) ClassAccuracy() map[string]float64 {
	out := map[string]float64{}
	classes := map[string]bool{}
	for _, r := range cr.Records {
		classes[r.Spec.Class] = true
	}
	for c := range classes {
		out[c] = cr.AccuracyWhere(func(r VictimRecord) bool { return r.Spec.Class == c })
	}
	return out
}

// episodeTickStride is the deterministic spacing between per-host episode
// start ticks in the controlled experiment. Hosts are independent worlds
// (the tick only phases each host's own load patterns), so the stride
// carries no physics — it only needs to dwarf the longest episode
// (maxIterations × ramps + shutter windows + fault backoff, well under a
// thousand ticks) so per-host timelines read sensibly in traces.
const episodeTickStride = 1 << 13

// RunControlled executes the controlled experiment.
func RunControlled(cfg ControlledConfig) *ControlledResult {
	cfg = cfg.withDefaults()
	rng := stats.NewRNG(cfg.Seed ^ 0xc0417011ed)
	return runControlled(cfg, rng)
}

func runControlled(cfg ControlledConfig, rng *stats.RNG) *ControlledResult {
	det := cfg.Detector
	if det == nil {
		det = core.TrainCached(workload.TrainingSpecs(cfg.Seed), core.Config{})
	}

	cl := cluster.New(cfg.Servers, cfg.ServerCfg, cfg.Scheduler)

	// One adversarial VM per server, placed first (§3.4: the remainder of
	// each machine goes to friendly VMs).
	advs := make(map[string]*probe.Adversary, cfg.Servers)
	for _, s := range cl.Servers {
		adv := probe.NewAdversary("bolt-"+s.Name(), advVCPUs, cfg.ProbeCfg, rng.Split())
		if err := s.Place(adv.VM); err != nil {
			continue // host too small for the adversary: skip it
		}
		advs[s.Name()] = adv
	}

	// Victims: disjoint-from-training specs at near-peak constant load
	// (§3.4 provisions for peak), scheduled across the cluster.
	specs := workload.VictimSpecs(cfg.Seed, cfg.Victims)
	type placedVictim struct {
		spec workload.Spec
		host *sim.Server
	}
	var victims []placedVictim
	for i, spec := range specs {
		vcpus := 1 + rng.Intn(maxVictimVCPUs)
		// A small deployment drives proportionally less host-wide traffic:
		// scale the uncore footprint with size (core pressure is per-core
		// and does not scale). The reference deployment is ~4 vCPUs.
		sizeFactor := 0.55 + 0.11*float64(vcpus)
		if sizeFactor > 1.1 {
			sizeFactor = 1.1
		}
		for _, r := range sim.UncoreResources() {
			spec.Base.Set(r, spec.Base.Get(r)*sizeFactor)
		}
		// Interactive services see user-driven load with idle valleys
		// (§3.3) — the phases shutter profiling hunts for. Batch analytics
		// run flat out.
		var pattern workload.LoadPattern = workload.Constant{Level: rng.Range(0.8, 1.0)}
		switch spec.Class {
		case "memcached", "redis", "webserver", "mysql", "postgres", "cassandra", "mongodb", "storm":
			if rng.Bool(0.35) {
				pattern = workload.Bursty{
					OnLevel:  rng.Range(0.85, 1.0),
					OffLevel: rng.Range(0.25, 0.45),
					OnTicks:  sim.Tick(rng.Range(60, 160)),
					OffTicks: sim.Tick(rng.Range(20, 60)),
					Offset:   sim.Tick(rng.Intn(100)),
				}
			}
		}
		app := workload.NewApp(spec, pattern, rng.Uint64())
		vm := &sim.VM{
			ID:    fmt.Sprintf("victim-%03d-%s", i, spec.Label),
			VCPUs: vcpus,
			App:   app,
		}
		host, err := cl.Place(vm, 0)
		if err != nil {
			continue // cluster full: the victim is dropped, as in a real run
		}
		victims = append(victims, placedVictim{spec, host})
	}

	// Group victims per host and run one episode per host; a victim is
	// correct at the iteration where any peeled candidate matches it.
	byHost := map[string][]placedVictim{}
	for _, v := range victims {
		byHost[v.host.Name()] = append(byHost[v.host.Name()], v)
	}

	// Deterministic host order: map iteration would reshuffle the shared
	// RNG stream between runs.
	hostNames := make([]string, 0, len(byHost))
	for name := range byHost {
		hostNames = append(hostNames, name)
	}
	sort.Strings(hostNames)

	res := &ControlledResult{}
	// Per-host episodes run on the episode worker pool. Each body touches
	// only its own host's server, VMs, and adversary (whose RNG stream was
	// pre-split in the serial placement phase above) plus the immutable
	// shared detector, and writes into its own slot of hostRecords — merged
	// in sorted-host order below, so the result is byte-identical at every
	// pool width. The episode start tick is a fixed per-host stride rather
	// than the previous host's cumulative episode length: hosts are
	// independent worlds, so the tick only phases their load patterns, and
	// a deterministic schedule is what makes the episodes parallelisable.
	hostRecords := make([][]VictimRecord, len(hostNames))
	forEachEpisode(len(hostNames), func(hi int) {
		hostName := hostNames[hi]
		vs := byHost[hostName]
		adv, ok := advs[hostName]
		if !ok {
			return
		}
		host := vs[0].host // advs is keyed by the server the adversary was placed on
		when := sim.Tick(hi) * episodeTickStride
		correctAt := make([]int, len(vs))
		ep := det.NewEpisode(host, adv)
		var lastRes *mining.Result
		for it := 1; it <= maxIterations; it++ {
			stepRes := ep.Step(when)
			lastRes = stepRes
			// Bolt's hypotheses this iteration: the disentangled
			// co-resident set plus the single-victim view (its top match is
			// a live hypothesis whenever one workload dominates the host).
			cands := append(ep.Candidates(len(vs)), stepRes)
			for vi, v := range vs {
				if correctAt[vi] > 0 {
					continue
				}
				for _, cand := range cands {
					if core.LabelMatches(cand.Best().Label, v.spec.Label) {
						correctAt[vi] = it
						break
					}
				}
			}
			allDone := true
			for _, c := range correctAt {
				if c == 0 {
					allDone = false
					break
				}
			}
			if allDone {
				break
			}
		}
		_, conf, unknown := ep.Grade(lastRes)
		records := make([]VictimRecord, 0, len(vs))
		for vi, v := range vs {
			records = append(records, VictimRecord{
				Spec:             v.spec,
				CoResidents:      len(vs),
				CorrectIteration: correctAt[vi],
				Dominant:         v.spec.Base.Dominant(),
				Ticks:            ep.Ticks,
				Confidence:       conf,
				Unknown:          unknown,
			})
		}
		hostRecords[hi] = records
	})
	for _, records := range hostRecords {
		res.Records = append(res.Records, records...)
	}
	// Aggregate injection counters in deterministic (sorted host) order.
	for _, hostName := range hostNames {
		if adv, ok := advs[hostName]; ok {
			counts := adv.FaultPlane().Counts()
			for c := range counts {
				res.FaultCounts[c] += counts[c]
			}
		}
	}
	return res
}
