package latency

import (
	"testing"
	"testing/quick"

	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// TestPropLatencyMonotoneInContention: more contention on the victim's
// critical resource must never reduce its p99 latency.
func TestPropLatencyMonotoneInContention(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := sim.NewServer("s0", sim.ServerConfig{})
		spec := workload.Memcached(rng.Split(), int(seed%18))
		spec.Jitter = 0
		app := workload.NewApp(spec, workload.Constant{Level: 1}, seed)
		vm := &sim.VM{ID: "v", VCPUs: 4, App: app}
		if err := s.Place(vm); err != nil {
			return true
		}
		k := probe.NewKernels(100)
		adv := &sim.VM{ID: "adv", VCPUs: 4, App: k}
		if err := s.Place(adv); err != nil {
			return true
		}
		svc := &Service{VM: vm, Pattern: workload.Constant{Level: 0.9}}

		target := spec.Base.Dominant()
		if target.IsCore() && !s.SharesCore(vm, adv) {
			target = sim.LLC
		}
		prev := svc.Measure(s, 0).P99Ms
		for _, intensity := range []float64{20, 50, 80, 95} {
			k.Set(target, intensity)
			cur := svc.Measure(s, 0).P99Ms
			if cur+1e-9 < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropSamplesFinite: every sample field must be finite and
// non-negative regardless of configuration.
func TestPropSamplesFinite(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := sim.NewServer("s0", sim.ServerConfig{})
		g := workload.Generators()[rng.Intn(len(workload.Generators()))]
		spec := g.Make(rng.Split(), rng.Intn(24))
		spec.Jitter = 0
		app := workload.NewApp(spec, workload.Constant{Level: rng.Range(0.1, 1)}, seed)
		vm := &sim.VM{ID: "v", VCPUs: 1 + rng.Intn(6), App: app}
		if err := s.Place(vm); err != nil {
			return true
		}
		k := probe.NewKernels(100)
		for _, r := range sim.AllResources() {
			if rng.Bool(0.4) {
				k.Set(r, rng.Range(0, 100))
			}
		}
		if err := s.Place(&sim.VM{ID: "adv", VCPUs: 4, App: k}); err != nil {
			return true
		}
		svc := &Service{
			VM:            vm,
			Pattern:       workload.Constant{Level: rng.Range(0, 1)},
			BaseServiceMs: rng.Range(0.1, 10),
			PeakRho:       rng.Range(0.1, 0.95),
		}
		at := sim.Tick(rng.Intn(1000))
		o := svc.Measure(s, at)
		bad := func(x float64) bool { return x < 0 || x != x || x > 1e12 }
		return !(bad(o.MeanMs) || bad(o.P99Ms) || bad(o.QPS) || bad(o.Utilization) || s.Slowdown(vm, at) < 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropQueueBounded: the shedding bound must cap latency even under
// absurd saturation.
func TestPropQueueBounded(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	spec := workload.Memcached(stats.NewRNG(1), 0)
	spec.Jitter = 0
	app := workload.NewApp(spec, workload.Constant{Level: 1}, 1)
	vm := &sim.VM{ID: "v", VCPUs: 4, App: app}
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	k := probe.NewKernels(100)
	for _, r := range sim.AllResources() {
		k.Set(r, 100)
	}
	if err := s.Place(&sim.VM{ID: "adv", VCPUs: 4, App: k}); err != nil {
		t.Fatal(err)
	}
	svc := &Service{VM: vm, Pattern: workload.Constant{Level: 1}}
	o := svc.Measure(s, 0)
	maxMean := 0.5 * s.Slowdown(vm, 0) * maxQueueBlowup
	if o.MeanMs > maxMean+1e-9 {
		t.Fatalf("mean %v exceeds the shedding bound %v", o.MeanMs, maxMean)
	}
}

// TestBatchJobMaxTicksCap: a pathological job must stop at the cap.
func TestBatchJobMaxTicksCap(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	spec := workload.Spark(stats.NewRNG(2), 0)
	spec.Jitter = 0
	app := workload.NewApp(spec, workload.Constant{Level: 1}, 1)
	vm := &sim.VM{ID: "v", VCPUs: 4, App: app}
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	job := &BatchJob{VM: vm, Work: 1000}
	ticks, _ := job.Run(s, 0, 50)
	if ticks != 50 {
		t.Fatalf("job should stop at the 50-tick cap, ran %d", ticks)
	}
}
