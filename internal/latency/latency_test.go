package latency

import (
	"math"
	"testing"

	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// victimService builds a memcached-like service placed on a fresh server.
func victimService(t *testing.T) (*Service, *sim.Server) {
	t.Helper()
	s := sim.NewServer("s0", sim.ServerConfig{})
	spec := workload.Memcached(stats.NewRNG(1), 0)
	spec.Jitter = 0
	app := workload.NewApp(spec, workload.Constant{Level: 1}, 1)
	vm := &sim.VM{ID: "victim", VCPUs: 4, App: app}
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	return &Service{VM: vm, Pattern: workload.Constant{Level: 1}}, s
}

func TestBaselineFinite(t *testing.T) {
	svc, _ := victimService(t)
	b := svc.Baseline(0)
	if b.MeanMs <= 0 || math.IsInf(b.MeanMs, 0) {
		t.Fatalf("baseline mean %v not finite positive", b.MeanMs)
	}
	if b.P99Ms <= b.MeanMs {
		t.Fatal("p99 must exceed the mean")
	}
}

func TestIsolatedMatchesBaseline(t *testing.T) {
	svc, s := victimService(t)
	obs := svc.Measure(s, 0)
	ref := svc.Baseline(0)
	if math.Abs(obs.MeanMs-ref.MeanMs) > 1e-9 {
		t.Fatalf("isolated service should match baseline: %v vs %v", obs.MeanMs, ref.MeanMs)
	}
	if f := svc.DegradationFactor(s, 0); math.Abs(f-1) > 1e-9 {
		t.Fatalf("isolated degradation factor = %v, want 1", f)
	}
}

func TestTargetedContentionExplodesTail(t *testing.T) {
	svc, s := victimService(t)
	// Attack the victim's two most critical resources at high intensity —
	// exactly what Bolt's DoS does.
	k := probe.NewKernels(100)
	crit := svc.VM.App.Demand(0).TopK(2)
	for _, r := range crit {
		k.Set(r, 90)
	}
	adv := &sim.VM{ID: "adv", VCPUs: 4, App: k}
	if err := s.Place(adv); err != nil {
		t.Fatal(err)
	}
	f := svc.DegradationFactor(s, 0)
	if f < 8 {
		t.Fatalf("targeted DoS degradation %vx, want ≥8x (paper: 8-140x)", f)
	}
}

func TestUntargetedContentionHurtsLess(t *testing.T) {
	svc, s := victimService(t)
	// Contention on resources the victim barely uses (disk).
	k := probe.NewKernels(100)
	k.Set(sim.DiskBW, 90)
	k.Set(sim.DiskCap, 90)
	adv := &sim.VM{ID: "adv", VCPUs: 4, App: k}
	if err := s.Place(adv); err != nil {
		t.Fatal(err)
	}
	f := svc.DegradationFactor(s, 0)
	if f > 2 {
		t.Fatalf("off-target contention degraded %vx; memcached ignores disk", f)
	}
}

func TestSaturationShedsThroughput(t *testing.T) {
	svc, s := victimService(t)
	k := probe.NewKernels(100)
	for _, r := range svc.VM.App.Demand(0).TopK(3) {
		k.Set(r, 95)
	}
	if err := s.Place(&sim.VM{ID: "adv", VCPUs: 4, App: k}); err != nil {
		t.Fatal(err)
	}
	obs := svc.Measure(s, 0)
	ref := svc.Baseline(0)
	if obs.Utilization < 1 {
		t.Skip("attack did not saturate in this configuration")
	}
	if obs.QPS >= ref.QPS {
		t.Fatal("saturated service must lose throughput")
	}
}

func TestLoadScalesLatency(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	spec := workload.Memcached(stats.NewRNG(2), 0)
	spec.Jitter = 0
	app := workload.NewApp(spec, workload.Constant{Level: 1}, 1)
	vm := &sim.VM{ID: "v", VCPUs: 4, App: app}
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	low := &Service{VM: vm, Pattern: workload.Constant{Level: 0.2}}
	high := &Service{VM: vm, Pattern: workload.Constant{Level: 0.95}}
	if low.Baseline(0).MeanMs >= high.Baseline(0).MeanMs {
		t.Fatal("higher load must mean higher latency")
	}
}

func TestBatchJobIsolated(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	spec := workload.SpecCPU(stats.NewRNG(3), 0)
	spec.Jitter = 0
	app := workload.NewApp(spec, workload.Constant{Level: 1}, 1)
	vm := &sim.VM{ID: "job", VCPUs: 2, App: app}
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	job := &BatchJob{VM: vm, Work: 100}
	ticks, slow := job.Run(s, 0, 0)
	if ticks != 100 || slow != 1 {
		t.Fatalf("isolated job: %d ticks slow %v, want 100 ticks slow 1", ticks, slow)
	}
}

func TestBatchJobUnderContention(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	spec := workload.SpecCPU(stats.NewRNG(4), 0) // mcf: memory bound
	spec.Jitter = 0
	app := workload.NewApp(spec, workload.Constant{Level: 1}, 1)
	vm := &sim.VM{ID: "job", VCPUs: 2, App: app}
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	k := probe.NewKernels(100)
	k.Set(sim.MemBW, 95)
	k.Set(sim.LLC, 95)
	if err := s.Place(&sim.VM{ID: "adv", VCPUs: 4, App: k}); err != nil {
		t.Fatal(err)
	}
	job := &BatchJob{VM: vm, Work: 100}
	ticks, slow := job.Run(s, 0, 0)
	if slow <= 1.2 {
		t.Fatalf("contended job slowdown %v, want > 1.2", slow)
	}
	if ticks <= 100 {
		t.Fatal("contended job must take longer than isolated")
	}
}

func TestBatchJobZeroWork(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	vm := &sim.VM{ID: "j", VCPUs: 1, App: probe.NewKernels(100)}
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	job := &BatchJob{VM: vm}
	if ticks, slow := job.Run(s, 0, 0); ticks != 0 || slow != 1 {
		t.Fatal("zero-work job should finish immediately")
	}
}

func TestDefaults(t *testing.T) {
	svc := &Service{}
	base, rho, qps := svc.defaults()
	if base != 0.5 || rho != 0.65 || qps != 100_000 {
		t.Fatalf("defaults wrong: %v %v %v", base, rho, qps)
	}
}
