package attack

import (
	"math"
	"testing"

	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/latency"
	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

func detector(t *testing.T) *core.Detector {
	t.Helper()
	return core.Train(workload.TrainingSpecs(100), core.Config{})
}

func TestPlanDoSTargetsCriticalResources(t *testing.T) {
	d := detector(t)
	rng := stats.NewRNG(1)
	spec := workload.Memcached(rng, 1)
	spec.Jitter = 0
	s := sim.NewServer("s0", sim.ServerConfig{})
	app := workload.NewApp(spec, workload.Constant{Level: 1}, 1)
	if err := s.Place(&sim.VM{ID: "v", VCPUs: 3, App: app}); err != nil {
		t.Fatal(err)
	}
	adv := probe.NewAdversary("adv", 4, probe.Config{}, rng.Split())
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	det := d.Detect(s, adv, 0, 1)
	plan := PlanDoS(det, 2)
	if len(plan.Targets) != 2 {
		t.Fatalf("plan has %d targets, want 2", len(plan.Targets))
	}
	for _, r := range plan.Targets {
		if plan.Intensity.Get(r) <= 0 {
			t.Fatalf("target %v has no intensity", r)
		}
		if plan.Intensity.Get(r) > 95 {
			t.Fatalf("intensity on %v exceeds the 95 cap", r)
		}
	}
	// Memcached's criticals are caches/network — a good plan keeps CPU low.
	if plan.AdversaryCPU() > 50 {
		t.Fatalf("targeted plan burns %v%% CPU; should stay low", plan.AdversaryCPU())
	}
}

func TestNaiveDoSPlan(t *testing.T) {
	plan := NaiveDoSPlan()
	if plan.AdversaryCPU() < 90 {
		t.Fatal("naive plan must saturate CPU")
	}
	if len(plan.Targets) != 1 || plan.Targets[0] != sim.CPU {
		t.Fatal("naive plan targets CPU only")
	}
}

func TestLaunchAndStop(t *testing.T) {
	adv := probe.NewAdversary("adv", 4, probe.Config{}, stats.NewRNG(2))
	var plan DoSPlan
	plan.Intensity.Set(sim.LLC, 80)
	plan.Targets = []sim.Resource{sim.LLC}
	Launch(adv, plan)
	if adv.Kernels.Demand(0)[sim.LLC] != 80 {
		t.Fatal("Launch did not apply the plan")
	}
	Stop(adv)
	if adv.Kernels.Demand(0)[sim.LLC] != 0 {
		t.Fatal("Stop did not idle the kernels")
	}
}

func TestDoSDegradesVictimTail(t *testing.T) {
	d := detector(t)
	rng := stats.NewRNG(3)
	spec := workload.Memcached(rng, 1)
	spec.Jitter = 0
	s := sim.NewServer("s0", sim.ServerConfig{})
	app := workload.NewApp(spec, workload.Constant{Level: 1}, 1)
	vm := &sim.VM{ID: "v", VCPUs: 3, App: app}
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	adv := probe.NewAdversary("adv", 4, probe.Config{}, rng.Split())
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	svc := &latency.Service{VM: vm, Pattern: workload.Constant{Level: 1}}

	det := d.Detect(s, adv, 0, 1)
	Launch(adv, PlanDoS(det, 2))
	f := svc.DegradationFactor(s, 1000)
	Stop(adv)
	if f < 5 {
		t.Fatalf("detection-guided DoS degraded tail by %.1fx, want ≥5x", f)
	}
}

func TestPlacementProbability(t *testing.T) {
	// 1 victim VM in 40 servers, 10 senders: 1-(39/40)^10 ≈ 0.224.
	p := PlacementProbability(40, 1, 10)
	if math.Abs(p-0.2235) > 0.01 {
		t.Fatalf("P(f) = %v, want ≈0.224", p)
	}
	if PlacementProbability(10, 10, 1) != 1 {
		t.Fatal("k=N should be certain")
	}
	if PlacementProbability(0, 1, 1) != 0 || PlacementProbability(10, 0, 5) != 0 {
		t.Fatal("degenerate inputs should be 0")
	}
	// Monotone in senders.
	if PlacementProbability(40, 2, 5) >= PlacementProbability(40, 2, 20) {
		t.Fatal("more senders must raise the probability")
	}
}

func TestRandomHosts(t *testing.T) {
	rng := stats.NewRNG(4)
	hosts := RandomHosts(rng, 40, 10)
	if len(hosts) != 10 {
		t.Fatalf("got %d hosts, want 10", len(hosts))
	}
	seen := map[int]bool{}
	for _, h := range hosts {
		if h < 0 || h >= 40 || seen[h] {
			t.Fatalf("invalid host sample: %v", hosts)
		}
		seen[h] = true
	}
	if got := len(RandomHosts(rng, 5, 10)); got != 5 {
		t.Fatalf("oversized request should clamp to total, got %d", got)
	}
}

func TestRFAOnBatchVictim(t *testing.T) {
	rng := stats.NewRNG(5)
	s := sim.NewServer("s0", sim.ServerConfig{})

	// Victim: memory-bound Spark job, reactive so it frees resources when
	// stalled.
	vspec := workload.Spark(rng, 0)
	vspec.Jitter = 0
	vapp := workload.NewReactive(workload.NewApp(vspec, workload.Constant{Level: 1}, 1))
	victimVM := &sim.VM{ID: "victim", VCPUs: 6, App: vapp}
	if err := s.Place(victimVM); err != nil {
		t.Fatal(err)
	}
	vapp.Bind(s, victimVM)

	// Beneficiary: CPU-bound job whose critical resource does not overlap
	// the victim's memory bandwidth. At 6 vCPUs each on an 8-core host, the
	// beneficiary's second-thread slots land on the victim's cores — the
	// hyperthread coupling resource-freeing attacks exploit.
	bspec := workload.SpecCPU(rng, 6) // gobmk: CPU-heavy, light memory
	bspec.Jitter = 0
	bapp := workload.NewApp(bspec, workload.Constant{Level: 1}, 2)
	benVM := &sim.VM{ID: "beneficiary", VCPUs: 6, App: bapp}
	if err := s.Place(benVM); err != nil {
		t.Fatal(err)
	}
	if !s.SharesCore(victimVM, benVM) {
		t.Fatal("test setup: victim and beneficiary must share a core")
	}

	helper := probe.NewAdversary("helper", 4, probe.Config{}, rng.Split())
	if err := s.Place(helper.VM); err != nil {
		t.Fatal(err)
	}

	rfa := &RFA{Helper: helper, Target: sim.MemBW}
	victimJob := &latency.BatchJob{VM: victimVM, Work: 200}
	benJob := &latency.BatchJob{VM: benVM, Work: 200}
	out := MeasureBatchRFA(rfa, s, victimJob, benJob, 0)

	if out.VictimDegradation <= 5 {
		t.Fatalf("victim degradation %.1f%%, want meaningful slowdown", out.VictimDegradation)
	}
	if out.BeneficiaryImprovement <= 0 {
		t.Fatalf("beneficiary should improve, got %.1f%%", out.BeneficiaryImprovement)
	}
	if helper.Kernels.Demand(0)[sim.MemBW] != 0 {
		t.Fatal("helper should be stopped after measurement")
	}
}

func TestRFAStartStop(t *testing.T) {
	helper := probe.NewAdversary("h", 4, probe.Config{}, stats.NewRNG(6))
	rfa := &RFA{Helper: helper, Target: sim.NetBW}
	rfa.Start()
	if helper.Kernels.Demand(0)[sim.NetBW] != 95 {
		t.Fatalf("default intensity should be 95, got %v", helper.Kernels.Demand(0)[sim.NetBW])
	}
	rfa.Stop()
	if helper.Kernels.Demand(0)[sim.NetBW] != 0 {
		t.Fatal("Stop should idle the helper")
	}
}

func TestCoResidencyFindsVictim(t *testing.T) {
	d := detector(t)
	rng := stats.NewRNG(7)
	cl := cluster.New(10, sim.ServerConfig{}, cluster.LeastLoaded{})

	// The victim: one mysql VM. Distractors: other workloads.
	services := map[string]*latency.Service{}
	vspec := workload.SQLDatabase(stats.NewRNG(50), 0) // mysql:oltp
	vspec.Jitter = 0
	vapp := workload.NewApp(vspec, workload.Constant{Level: 1}, 1)
	victimVM := &sim.VM{ID: "the-victim", VCPUs: 4, App: vapp}
	host, err := cl.Place(victimVM, 0)
	if err != nil {
		t.Fatal(err)
	}
	services[host.Name()] = &latency.Service{VM: victimVM, Pattern: workload.Constant{Level: 1}, BaseServiceMs: 8}

	for i := 0; i < 6; i++ {
		spec := workload.Spark(rng.Split(), i)
		spec.Jitter = 0
		app := workload.NewApp(spec, workload.Constant{Level: 1}, uint64(10+i))
		if _, err := cl.Place(&sim.VM{ID: spec.Label + string(rune('a'+i)), VCPUs: 4, App: app}, 0); err != nil {
			t.Fatal(err)
		}
	}

	atk := &CoResidency{
		Detector: d,
		Cluster:  cl,
		RNG:      stats.NewRNG(8),
		Receiver: func(h *sim.Server) *latency.Service { return services[h.Name()] },
	}
	res := atk.Run(10, "mysql", 1, 0)
	// The analytic P(f) models independent placement: 1-(1-1/10)^10 ≈ 0.65.
	// The simulated launch lands senders on distinct hosts, so coverage is
	// actually complete here.
	if math.Abs(res.PlacementProbability-0.6513) > 0.001 {
		t.Fatalf("P(f) = %v, want ≈0.651", res.PlacementProbability)
	}
	if !res.Found {
		t.Fatal("victim not found")
	}
	if res.Host != host.Name() {
		t.Fatalf("found %s, victim is on %s", res.Host, host.Name())
	}
	if res.LatencyRatio < 2 {
		t.Fatalf("confirmation ratio %.2f, want ≥2", res.LatencyRatio)
	}
	if res.Ticks <= 0 {
		t.Fatal("attack must consume time")
	}
	// Senders must be cleaned up.
	for _, s := range cl.Servers {
		for _, vm := range s.VMs() {
			if vm.ID[:4] == "core" {
				t.Fatalf("sender %s left behind", vm.ID)
			}
		}
	}
}

func TestCoResidencyNoTarget(t *testing.T) {
	d := detector(t)
	cl := cluster.New(4, sim.ServerConfig{}, cluster.LeastLoaded{})
	atk := &CoResidency{
		Detector: d,
		Cluster:  cl,
		RNG:      stats.NewRNG(9),
		Receiver: func(*sim.Server) *latency.Service { return nil },
	}
	res := atk.Run(4, "mysql", 1, 0)
	if res.Found {
		t.Fatal("empty cluster cannot contain the victim")
	}
}

// TestConfirmDepthWithinMatchesKept: the co-residency pruning cannot read
// deeper into a co-resident's ranking than Detect keeps.
func TestConfirmDepthWithinMatchesKept(t *testing.T) {
	if confirmDepth > mining.MatchesKept {
		t.Fatalf("pruning reads the top %d matches, Detect keeps %d", confirmDepth, mining.MatchesKept)
	}
}
