package probe

import (
	"math"
	"testing"

	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// placeVictim puts a constant-load victim with the given spec on the server.
func placeVictim(t *testing.T, s *sim.Server, id string, vcpus int, spec workload.Spec) *sim.VM {
	t.Helper()
	spec.Jitter = 0
	app := workload.NewApp(spec, workload.Constant{Level: 1}, 1)
	vm := &sim.VM{ID: id, VCPUs: vcpus, App: app}
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	return vm
}

func specWith(vals map[sim.Resource]float64) workload.Spec {
	var base sim.Vector
	for r, x := range vals {
		base.Set(r, x)
	}
	var ls sim.Vector
	for i := range ls {
		ls[i] = 100
	}
	return workload.Spec{Label: "test", Class: "test", Base: base, LoadScaled: sim.Vector{}}
}

func TestMaxIntensityFor(t *testing.T) {
	cases := []struct {
		vcpus int
		want  float64
	}{{0, 0}, {1, 25}, {2, 50}, {4, 100}, {16, 100}}
	for _, c := range cases {
		if got := MaxIntensityFor(c.vcpus); got != c.want {
			t.Errorf("MaxIntensityFor(%d) = %v, want %v", c.vcpus, got, c.want)
		}
	}
}

func TestKernelsSetGetReset(t *testing.T) {
	k := NewKernels(100)
	k.Set(sim.LLC, 60)
	if d := k.Demand(0); d.Get(sim.LLC) != 60 {
		t.Fatal("Demand should reflect kernel intensity")
	}
	k.Reset()
	if k.Demand(0)[sim.LLC] != 0 {
		t.Fatal("Reset should idle kernels")
	}
}

func TestKernelsCap(t *testing.T) {
	k := NewKernels(50)
	k.Set(sim.CPU, 90)
	if got := k.Demand(0)[sim.CPU]; got != 50 {
		t.Fatalf("intensity should cap at 50, got %v", got)
	}
}

func TestRampMeasuresUncorePressure(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	adv := NewAdversary("adv", 4, Config{NoiseSD: 0.001}, stats.NewRNG(1))
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	placeVictim(t, s, "v", 4, specWith(map[sim.Resource]float64{sim.MemBW: 70}))

	m := adv.Ramp(s, sim.MemBW, 0)
	if math.Abs(m.Pressure-70) > 6 {
		t.Fatalf("measured pressure %v, want ≈70", m.Pressure)
	}
	if m.Ticks <= 0 {
		t.Fatal("ramp should take time")
	}
	if adv.Kernels.Demand(0)[sim.MemBW] != 0 {
		t.Fatal("kernel should be idled after the ramp")
	}
}

func TestRampZeroPressure(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	adv := NewAdversary("adv", 4, Config{NoiseSD: 0.001}, stats.NewRNG(2))
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	m := adv.Ramp(s, sim.NetBW, 0)
	if m.Pressure > 5 {
		t.Fatalf("empty host should measure ~0 pressure, got %v", m.Pressure)
	}
}

func TestRampHighPressureIsFast(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	adv := NewAdversary("adv", 4, Config{NoiseSD: 0.001}, stats.NewRNG(3))
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	placeVictim(t, s, "hi", 4, specWith(map[sim.Resource]float64{sim.LLC: 90}))
	mHigh := adv.Ramp(s, sim.LLC, 0)

	s2 := sim.NewServer("s1", sim.ServerConfig{})
	adv2 := NewAdversary("adv2", 4, Config{NoiseSD: 0.001}, stats.NewRNG(3))
	if err := s2.Place(adv2.VM); err != nil {
		t.Fatal(err)
	}
	placeVictim(t, s2, "lo", 4, specWith(map[sim.Resource]float64{sim.LLC: 20}))
	mLow := adv2.Ramp(s2, sim.LLC, 0)

	if mHigh.Ticks >= mLow.Ticks {
		t.Fatalf("high pressure should be detected faster: %d vs %d ticks",
			mHigh.Ticks, mLow.Ticks)
	}
}

func TestSmallAdversaryCannotSenseModeratePressure(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	adv := NewAdversary("adv", 1, Config{NoiseSD: 0.001}, stats.NewRNG(4)) // cap 25%
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	placeVictim(t, s, "v", 4, specWith(map[sim.Resource]float64{sim.MemBW: 40}))
	m := adv.Ramp(s, sim.MemBW, 0)
	// The 1-vCPU adversary (25% ceiling) cannot saturate against 40%
	// pressure, so it reports the floor estimate 100 − 25 = 75: wildly
	// wrong, as the paper's Fig. 10b accuracy collapse for small VMs
	// reflects.
	if m.Pressure != 75 {
		t.Fatalf("unsaturated estimate = %v, want 75", m.Pressure)
	}
}

func TestProfileOnceCoreAndUncore(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	adv := NewAdversary("adv", 4, Config{NoiseSD: 0.001}, stats.NewRNG(5))
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	// Victim on cores 2-3: no core sharing with the 4-vCPU adversary
	// (cores 0-1), so a third uncore benchmark must be added.
	placeVictim(t, s, "v", 4, specWith(map[sim.Resource]float64{
		sim.L1I: 80, sim.LLC: 60, sim.MemBW: 55, sim.NetBW: 45, sim.DiskBW: 40, sim.MemCap: 50,
	}))
	p := adv.ProfileOnce(s, 0, 0)
	if p.CoreShared {
		t.Fatal("no core is shared; CoreShared must be false")
	}
	nCore, nUncore := 0, 0
	for _, r := range p.Resources {
		if r.IsCore() {
			nCore++
		} else {
			nUncore++
		}
	}
	if nCore != 1 || nUncore != 2 {
		t.Fatalf("want 1 core + 2 uncore benchmarks, got %d + %d", nCore, nUncore)
	}
	for _, r := range p.Resources {
		if r.IsCore() && p.Observed.Get(r) > 5 {
			t.Fatalf("core pressure should read ~0 without core sharing, got %v", p.Observed.Get(r))
		}
	}
	if p.Ticks <= 0 {
		t.Fatal("profiling must consume time")
	}
}

func TestProfileOnceSharedCore(t *testing.T) {
	// Single-core host: the victim lands on the adversary's sibling thread.
	s := sim.NewServer("s0", sim.ServerConfig{Cores: 1, ThreadsPerCore: 2})
	adv := NewAdversary("adv", 1, Config{NoiseSD: 0.001}, stats.NewRNG(6))
	adv.Kernels.MaxIntensity = 100 // isolate the core-sharing effect from VM size
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	placeVictim(t, s, "v", 1, specWith(map[sim.Resource]float64{
		sim.L1I: 80, sim.L1D: 70, sim.L2: 60, sim.CPU: 75, sim.LLC: 60,
		sim.MemBW: 50, sim.NetBW: 40, sim.DiskBW: 30, sim.MemCap: 45,
	}))
	p := adv.ProfileOnce(s, 0, 0)
	if !p.CoreShared {
		t.Fatal("adversary and victim share core 0; CoreShared must be true")
	}
	nUncore := 0
	for _, r := range p.Resources {
		if !r.IsCore() {
			nUncore++
		}
	}
	if nUncore != 1 {
		t.Fatalf("with core sharing only 1 uncore benchmark should run, got %d", nUncore)
	}
}

func TestProfileOnceExtraBench(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	adv := NewAdversary("adv", 4, Config{NoiseSD: 0.001}, stats.NewRNG(7))
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	p := adv.ProfileOnce(s, 0, 3)
	known := 0
	for _, k := range p.Known {
		if k {
			known++
		}
	}
	if known < 5 {
		t.Fatalf("extraBench=3 should measure ≥5 resources, got %d", known)
	}
}

func TestProfileCore(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	adv := NewAdversary("adv", 2, Config{NoiseSD: 0.001}, stats.NewRNG(9))
	adv.Kernels.MaxIntensity = 100
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	placeVictim(t, s, "v", 2, specWith(map[sim.Resource]float64{
		sim.L1I: 70, sim.L1D: 60, sim.L2: 40, sim.CPU: 65,
	}))
	// 2-vCPU adversary on core 0; 2-vCPU victim on core 1: not shared, so
	// none of the core readings carry information and all must be dropped.
	p := adv.ProfileCore(s, 0)
	for _, r := range sim.CoreResources() {
		if p.Known[r] {
			t.Fatalf("unshared ProfileCore must not trust %v", r)
		}
	}
	if p.CoreShared {
		t.Fatal("cores are not shared in this placement")
	}
}

func TestProfileCoreShared(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{Cores: 1, ThreadsPerCore: 2})
	adv := NewAdversary("adv", 1, Config{NoiseSD: 0.001}, stats.NewRNG(29))
	adv.Kernels.MaxIntensity = 100
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	// The 1-vCPU victim lands on core 0 thread 1, sharing the adversary's core.
	placeVictim(t, s, "v", 1, specWith(map[sim.Resource]float64{
		sim.L1I: 70, sim.L1D: 60, sim.L2: 40, sim.CPU: 65,
	}))
	p := adv.ProfileCore(s, 0)
	if !p.CoreShared {
		t.Fatal("shared core not detected")
	}
	for _, r := range sim.CoreResources() {
		if !p.Known[r] {
			t.Fatalf("shared ProfileCore should measure %v", r)
		}
	}
	if math.Abs(p.Observed.Get(sim.L1I)-70) > 6 {
		t.Fatalf("L1-i measured %v, want ≈70", p.Observed.Get(sim.L1I))
	}
}

func TestShutterFindsQuietPhase(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	adv := NewAdversary("adv", 4, Config{NoiseSD: 0.001}, stats.NewRNG(10))
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	// Steady victim plus a bursty victim that idles half the time.
	placeVictim(t, s, "steady", 2, specWith(map[sim.Resource]float64{sim.MemBW: 40}))
	burstSpec := specWith(map[sim.Resource]float64{sim.MemBW: 50})
	var ls sim.Vector
	for i := range ls {
		ls[i] = 100
	}
	burstSpec.LoadScaled = ls
	burstApp := workload.NewApp(burstSpec, workload.Bursty{
		OnLevel: 1, OffLevel: 0, OnTicks: 20, OffTicks: 20,
	}, 2)
	if err := s.Place(&sim.VM{ID: "bursty", VCPUs: 2, App: burstApp}); err != nil {
		t.Fatal(err)
	}

	minV := adv.ShutterMin(s, 0, 40, 80)
	// During the bursty victim's off phase only the steady 40% remains.
	if math.Abs(minV.Get(sim.MemBW)-40) > 6 {
		t.Fatalf("shutter min MemBW = %v, want ≈40", minV.Get(sim.MemBW))
	}
}

func TestShutterSampleCount(t *testing.T) {
	// Zero samples and window mean 10 samples over a 10-tick window: the
	// same draws, so the same minima, as asking for them explicitly.
	run := func(samples int, window sim.Tick) sim.Vector {
		s := sim.NewServer("s0", sim.ServerConfig{})
		adv := NewAdversary("adv", 4, Config{}, stats.NewRNG(11))
		if err := s.Place(adv.VM); err != nil {
			t.Fatal(err)
		}
		placeVictim(t, s, "v", 2, specWith(map[sim.Resource]float64{sim.MemBW: 40}))
		return adv.ShutterMin(s, 0, samples, window)
	}
	if got, want := run(0, 0), run(10, 10); got != want {
		t.Fatalf("ShutterMin(0, 0) = %v, want ShutterMin(10, 10) = %v", got, want)
	}
}
