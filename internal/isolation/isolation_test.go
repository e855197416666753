package isolation

import (
	"testing"

	"bolt/internal/sim"
)

func TestPlatformNames(t *testing.T) {
	if Baremetal.String() != "baremetal" || Containers.String() != "containers" || VMs.String() != "VMs" {
		t.Fatal("platform names wrong")
	}
	if Platform(9).String() != "unknown" {
		t.Fatal("unknown platform name wrong")
	}
	if len(Platforms()) != 3 {
		t.Fatal("Platforms should list three settings")
	}
}

func TestBaremetalFullVisibility(t *testing.T) {
	v := Config{Platform: Baremetal}.Visibility()
	for _, r := range sim.AllResources() {
		if v.Get(r) != 1 {
			t.Fatalf("baremetal/none should not attenuate %v", r)
		}
	}
}

func TestPlatformsConstrainMemoryAndCPU(t *testing.T) {
	bare := Config{Platform: Baremetal}.Visibility()
	cont := Config{Platform: Containers}.Visibility()
	vm := Config{Platform: VMs}.Visibility()
	if !(vm.Get(sim.MemCap) < cont.Get(sim.MemCap) && cont.Get(sim.MemCap) < bare.Get(sim.MemCap)) {
		t.Fatal("memory-capacity visibility should drop baremetal→containers→VMs")
	}
	if !(vm.Get(sim.CPU) < cont.Get(sim.CPU) && cont.Get(sim.CPU) < bare.Get(sim.CPU)) {
		t.Fatal("CPU visibility should drop baremetal→containers→VMs")
	}
}

func TestMechanismsTargetTheirResource(t *testing.T) {
	base := Config{Platform: Baremetal}
	cases := []struct {
		cfg Config
		r   sim.Resource
	}{
		{func() Config { c := base; c.NetPartition = true; return c }(), sim.NetBW},
		{func() Config { c := base; c.MemBWPartition = true; return c }(), sim.MemBW},
		{func() Config { c := base; c.CachePartition = true; return c }(), sim.LLC},
	}
	for _, c := range cases {
		v := c.cfg.Visibility()
		if v.Get(c.r) >= 0.5 {
			t.Errorf("%+v should strongly attenuate %v, got %v", c.cfg, c.r, v.Get(c.r))
		}
	}
}

func TestThreadPinningAttenuatesCore(t *testing.T) {
	c := Config{Platform: Baremetal, ThreadPinning: true}
	v := c.Visibility()
	for _, r := range sim.CoreResources() {
		if v.Get(r) >= 1 {
			t.Fatalf("pinning should attenuate core resource %v", r)
		}
	}
	for _, r := range sim.UncoreResources() {
		if v.Get(r) != 1 {
			t.Fatalf("pinning must not touch uncore resource %v", r)
		}
	}
}

func TestCoreIsolationZerosCoreVisibility(t *testing.T) {
	c := Config{Platform: VMs, CoreIsolation: true}
	v := c.Visibility()
	for _, r := range sim.CoreResources() {
		if v.Get(r) != 0 {
			t.Fatalf("core isolation should zero %v visibility", r)
		}
	}
	sc := c.ServerConfig(8, 2)
	if !sc.DedicatedCores {
		t.Fatal("core isolation must flip DedicatedCores")
	}
}

func TestStackIsCumulative(t *testing.T) {
	for _, p := range Platforms() {
		stack := Stack(p)
		if len(stack) != 6 {
			t.Fatalf("stack for %v has %d steps, want 6", p, len(stack))
		}
		// Visibility must be monotonically non-increasing per resource as
		// mechanisms accumulate.
		prev := stack[0].Visibility()
		for i := 1; i < len(stack); i++ {
			cur := stack[i].Visibility()
			for _, r := range sim.AllResources() {
				if cur.Get(r) > prev.Get(r)+1e-12 {
					t.Fatalf("step %d of %v increased visibility of %v", i, p, r)
				}
			}
			prev = cur
		}
		if !stack[5].CoreIsolation || stack[5].Platform != p {
			t.Fatal("final stack step should be full isolation on the same platform")
		}
	}
	if len(StackLabels()) != 6 {
		t.Fatal("StackLabels should have 6 entries")
	}
}

func TestPenalties(t *testing.T) {
	c := Config{Platform: Containers}
	if c.PerfPenalty() != 1 || c.UtilizationPenalty() != 0 {
		t.Fatal("non-core-isolation configs should be penalty-free")
	}
	c.CoreIsolation = true
	if c.PerfPenalty() != 1.34 {
		t.Fatalf("core isolation perf penalty = %v, want 1.34", c.PerfPenalty())
	}
	if c.UtilizationPenalty() != 0.45 {
		t.Fatalf("core isolation utilisation penalty = %v, want 0.45", c.UtilizationPenalty())
	}
}

func TestCoreIsolationOnly(t *testing.T) {
	c := CoreIsolationOnly(Containers)
	if !c.CoreIsolation || c.CachePartition || c.ThreadPinning {
		t.Fatal("CoreIsolationOnly should enable only core isolation")
	}
}

func TestVisibilityAffectsObservation(t *testing.T) {
	cfg := Config{Platform: VMs, CachePartition: true}
	s := sim.NewServer("s0", cfg.ServerConfig(8, 2))
	adv := &sim.VM{ID: "adv", VCPUs: 4, App: fixed{}}
	victim := &sim.VM{ID: "v", VCPUs: 4, App: llcHeavy{}}
	if err := s.Place(adv); err != nil {
		t.Fatal(err)
	}
	if err := s.Place(victim); err != nil {
		t.Fatal(err)
	}
	if got := s.ObservedPressure(adv, sim.LLC, 0); got > 15 {
		t.Fatalf("partitioned LLC leaked %v%% pressure", got)
	}
}

type fixed struct{}

func (fixed) Demand(sim.Tick) sim.Vector { return sim.Vector{} }
func (fixed) DemandInto(_ sim.Tick, out *sim.Vector, _ sim.ResourceSet) {
	*out = sim.Vector{}
}
func (fixed) Sensitivity() sim.Vector { return sim.Vector{} }

type llcHeavy struct{}

func (llcHeavy) Demand(sim.Tick) sim.Vector {
	var v sim.Vector
	v.Set(sim.LLC, 80)
	return v
}
func (l llcHeavy) DemandInto(t sim.Tick, out *sim.Vector, _ sim.ResourceSet) {
	*out = l.Demand(t)
}
func (llcHeavy) Sensitivity() sim.Vector { return sim.Vector{} }
