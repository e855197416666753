package workload

import (
	"testing"

	"bolt/internal/sim"
	"bolt/internal/stats"
)

// kernelApp exerts fixed pressure on one resource.
type kernelApp struct {
	r sim.Resource
	v float64
}

func (k kernelApp) Demand(sim.Tick) sim.Vector {
	var d sim.Vector
	d.Set(k.r, k.v)
	return d
}
func (k kernelApp) DemandInto(t sim.Tick, out *sim.Vector, _ sim.ResourceSet) {
	*out = k.Demand(t)
}
func (k kernelApp) Sensitivity() sim.Vector { return sim.Vector{} }

func reactiveVictim(t *testing.T, s *sim.Server) (*Reactive, *sim.VM) {
	t.Helper()
	spec := Spark(stats.NewRNG(1), 0) // kmeans: memBW-bound
	spec.Jitter = 0
	r := NewReactive(NewApp(spec, Constant{Level: 1}, 1))
	vm := &sim.VM{ID: "victim", VCPUs: 4, App: r}
	if err := s.Place(vm); err != nil {
		t.Fatal(err)
	}
	r.Bind(s, vm)
	return r, vm
}

func TestReactiveUnboundPassesThrough(t *testing.T) {
	spec := Spark(stats.NewRNG(1), 0)
	spec.Jitter = 0
	app := NewApp(spec, Constant{Level: 1}, 1)
	r := NewReactive(app)
	if r.Demand(5) != app.Demand(5) {
		t.Fatal("unbound Reactive must behave like the raw app")
	}
	if r.Sensitivity() != app.Sensitivity() {
		t.Fatal("sensitivity must pass through")
	}
}

func TestReactiveIdleHostPassesThrough(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	r, _ := reactiveVictim(t, s)
	raw := r.App.Demand(10)
	if r.Demand(10) != raw {
		t.Fatal("no contention → demand must equal the raw profile")
	}
}

func TestReactiveFreesNonBottleneckResources(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	r, _ := reactiveVictim(t, s)
	raw := r.App.Demand(10)

	// Saturate the victim's memory bandwidth.
	attacker := &sim.VM{ID: "atk", VCPUs: 4, App: kernelApp{sim.MemBW, 95}}
	if err := s.Place(attacker); err != nil {
		t.Fatal(err)
	}
	d := r.Demand(10)

	// The bottleneck stays busy...
	if d.Get(sim.MemBW) != raw.Get(sim.MemBW) {
		t.Fatalf("bottleneck demand should stay at raw: %v vs %v",
			d.Get(sim.MemBW), raw.Get(sim.MemBW))
	}
	// ...everything else drains.
	for _, res := range []sim.Resource{sim.LLC, sim.MemCap, sim.NetBW} {
		if d.Get(res) >= raw.Get(res) {
			t.Fatalf("%v should drain under a memBW stall: %v vs raw %v",
				res, d.Get(res), raw.Get(res))
		}
	}
}

func TestReactiveDrainScalesWithSlowdown(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	r, vm := reactiveVictim(t, s)

	light := &sim.VM{ID: "light", VCPUs: 2, App: kernelApp{sim.MemBW, 40}}
	if err := s.Place(light); err != nil {
		t.Fatal(err)
	}
	lightLLC := r.Demand(10)[sim.LLC]
	s.Remove("light")
	heavy := &sim.VM{ID: "heavy", VCPUs: 2, App: kernelApp{sim.MemBW, 95}}
	if err := s.Place(heavy); err != nil {
		t.Fatal(err)
	}
	heavyLLC := r.Demand(10)[sim.LLC]
	if heavyLLC >= lightLLC {
		t.Fatalf("heavier stall should drain more: light %v, heavy %v", lightLLC, heavyLLC)
	}
	_ = vm
}

func TestReactiveMutualDoesNotRecurse(t *testing.T) {
	// Two reactive apps on one host: evaluating either must terminate and
	// produce bounded demand (the computing flag breaks the cycle).
	s := sim.NewServer("s0", sim.ServerConfig{})
	r1, _ := reactiveVictim(t, s)

	spec2 := Hadoop(stats.NewRNG(2), 2)
	spec2.Jitter = 0
	r2 := NewReactive(NewApp(spec2, Constant{Level: 1}, 2))
	vm2 := &sim.VM{ID: "victim2", VCPUs: 4, App: r2}
	if err := s.Place(vm2); err != nil {
		t.Fatal(err)
	}
	r2.Bind(s, vm2)

	// Saturate something both feel.
	attacker := &sim.VM{ID: "atk", VCPUs: 4, App: kernelApp{sim.LLC, 95}}
	if err := s.Place(attacker); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for tick := sim.Tick(0); tick < 50; tick++ {
			d1 := r1.Demand(tick)
			d2 := r2.Demand(tick)
			for _, res := range sim.AllResources() {
				if d1.Get(res) < 0 || d1.Get(res) > 100 || d2.Get(res) < 0 || d2.Get(res) > 100 {
					t.Errorf("reactive demand out of bounds at %v", tick)
					return
				}
			}
		}
	}()
	<-done
}

func TestReactiveSlowdownBelowOneIgnored(t *testing.T) {
	s := sim.NewServer("s0", sim.ServerConfig{})
	r, _ := reactiveVictim(t, s)
	// A co-resident with tiny pressure: no overload anywhere, demand stays
	// raw.
	quiet := &sim.VM{ID: "quiet", VCPUs: 2, App: kernelApp{sim.DiskBW, 5}}
	if err := s.Place(quiet); err != nil {
		t.Fatal(err)
	}
	if r.Demand(3) != r.App.Demand(3) {
		t.Fatal("sub-capacity contention must not perturb demand")
	}
}
