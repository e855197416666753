package sim_test

// Bit-exactness property test for the cached observation plane: a naive
// reference copy of the pre-snapshot per-resource observation code is run
// against the cached plane over randomized placements, ticks, Reactive
// apps, kernel retuning, and mid-episode Place/Remove, asserting `==`
// equality on every observable. The test lives in an external package so
// it can exercise the plane with the real Demander implementations
// (workload.App, workload.Reactive, probe.Kernels) without an import
// cycle.

import (
	"fmt"
	"testing"

	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// refObservedPressure is the original single-resource observation loop,
// evaluating every demand inline — copied from the pre-snapshot
// sim.Server.ObservedPressure and kept as the ground truth.
func refObservedPressure(s *sim.Server, observer *sim.VM, r sim.Resource, t sim.Tick) float64 {
	vis := s.Config().Visibility
	squeeze := 0.0
	if r == sim.MemBW && observer != nil {
		squeeze = observer.App.Demand(t)[sim.LLC] / 100 * vis.Get(sim.LLC)
	}
	total := 0.0
	for _, vm := range s.VMs() {
		if vm == observer {
			continue
		}
		if r.IsCore() && !s.SharesCore(observer, vm) {
			continue
		}
		demand := vm.App.Demand(t)
		total += demand.Get(r)
		if squeeze > 0 {
			total += demand.Get(sim.LLC) * sim.CacheSpillFactor(&demand) * squeeze * sim.SpillScale
		}
	}
	total *= vis.Get(r)
	if total > 100 {
		total = 100
	}
	return total
}

// refObservedVector is the original ObservedVector: one refObservedPressure
// call per resource.
func refObservedVector(s *sim.Server, observer *sim.VM, t sim.Tick) sim.Vector {
	var v sim.Vector
	for _, r := range sim.AllResources() {
		v.Set(r, refObservedPressure(s, observer, r, t))
	}
	return v
}

// refObservedCorePressure is the original per-core observation.
func refObservedCorePressure(s *sim.Server, observer *sim.VM, coreIdx int, r sim.Resource, t sim.Tick) float64 {
	if !r.IsCore() {
		return refObservedPressure(s, observer, r, t)
	}
	total := 0.0
	for _, vm := range s.VMsOnCore(observer, coreIdx) {
		total += vm.App.Demand(t)[r]
	}
	total *= s.Config().Visibility[r]
	if total > 100 {
		total = 100
	}
	return total
}

// refSlowdown is the original Slowdown: inline victim demand plus the
// reference interference.
func refSlowdown(s *sim.Server, victim *sim.VM, t sim.Tick) float64 {
	return sim.SlowdownFor(victim.App.Demand(t), victim.App.Sensitivity(), refObservedVector(s, victim, t))
}

// refCPUUtilization is the original aggregate-CPU loop.
func refCPUUtilization(s *sim.Server, t sim.Tick) float64 {
	total := 0.0
	for _, vm := range s.VMs() {
		total += vm.App.Demand(t)[sim.CPU]
	}
	if total > 100 {
		total = 100
	}
	return total
}

// refHostDemand is the original clamped placement-order fold, kept to the
// entries in need: the others stay zero.
func refHostDemand(s *sim.Server, t sim.Tick, need sim.ResourceSet) sim.Vector {
	var total sim.Vector
	for _, vm := range s.VMs() {
		d := vm.App.Demand(t)
		for r := range total {
			if need.Has(sim.Resource(r)) {
				total.Set(sim.Resource(r), total[r]+d[r])
			}
		}
	}
	return total
}

// parityWorld is one randomized server under mutation.
type parityWorld struct {
	s       *sim.Server
	rng     *stats.RNG
	kernels []*probe.Kernels // kernels of placed adversary VMs
	nextID  int
}

func (w *parityWorld) placeRandom(t *testing.T) {
	w.nextID++
	id := fmt.Sprintf("vm%d", w.nextID)
	vcpus := 1 + w.rng.Intn(4)
	vm := &sim.VM{ID: id, VCPUs: vcpus}
	switch w.rng.Intn(4) {
	case 0: // plain app
		spec := workload.Memcached(w.rng.Split(), w.rng.Intn(3))
		vm.App = workload.NewApp(spec, workload.Constant{Level: 0.4 + 0.5*w.rng.Float64()}, w.rng.Uint64())
	case 1: // bursty app
		spec := workload.Hadoop(w.rng.Split(), w.rng.Intn(3))
		vm.App = workload.NewApp(spec, workload.Bursty{OnLevel: 1, OffLevel: 0.2, OnTicks: 20, OffTicks: 20}, w.rng.Uint64())
	case 2: // reactive app, bound after placement
		spec := workload.SQLDatabase(w.rng.Split(), w.rng.Intn(3))
		r := workload.NewReactive(workload.NewApp(spec, workload.Diurnal{Min: 0.3, Max: 1, Period: 200}, w.rng.Uint64()))
		vm.App = r
		if err := w.s.Place(vm); err != nil {
			return
		}
		r.Bind(w.s, vm)
		return
	case 3: // adversary kernels
		k := probe.NewKernels(100)
		for i := 0; i < 3; i++ {
			k.Set(sim.Resource(w.rng.Intn(sim.NumResources)), float64(w.rng.Intn(90)))
		}
		vm.App = k
		if err := w.s.Place(vm); err != nil {
			return
		}
		w.kernels = append(w.kernels, k)
		return
	}
	_ = w.s.Place(vm) // ErrNoCapacity is fine: the host is simply full
}

func (w *parityWorld) removeRandom() {
	vms := w.s.VMs()
	if len(vms) == 0 {
		return
	}
	vm := vms[w.rng.Intn(len(vms))]
	if k, ok := vm.App.(*probe.Kernels); ok {
		for i, have := range w.kernels {
			if have == k {
				w.kernels = append(w.kernels[:i], w.kernels[i+1:]...)
				break
			}
		}
	}
	w.s.Remove(vm.ID)
}

// mix runs a random interleaving of single-resource, per-core and
// full-vector queries at one key, each against its reference. Its first
// query lands on a key that holds only the working set carried in from the
// last one, which is small when only mix ran there; MemBW is asked
// from a placed observer, whose squeeze reads LLC; a per-core query may
// find its resource filled or not; and a kernel retune between two
// queries forces a new key between two partial fills.
func (w *parityWorld) mix(t *testing.T, at sim.Tick) {
	t.Helper()
	s := w.s
	vms := s.VMs()
	for q := 0; q < 8; q++ {
		var obs *sim.VM
		if len(vms) > 0 && w.rng.Intn(3) > 0 {
			obs = vms[w.rng.Intn(len(vms))]
		}
		switch w.rng.Intn(7) {
		case 0, 1:
			r := sim.Resource(w.rng.Intn(sim.NumResources))
			if got, want := s.ObservedPressure(obs, r, at), refObservedPressure(s, obs, r, at); got != want {
				t.Fatalf("t=%d mix ObservedPressure(%v): got %v want %v", at, r, got, want)
			}
		case 2:
			if obs == nil {
				continue
			}
			if got, want := s.ObservedPressure(obs, sim.MemBW, at), refObservedPressure(s, obs, sim.MemBW, at); got != want {
				t.Fatalf("t=%d mix observer=%s ObservedPressure(MemBW): got %v want %v", at, obs.ID, got, want)
			}
		case 3:
			core := w.rng.Intn(s.Config().Cores)
			r := sim.CoreResources()[w.rng.Intn(4)]
			if got, want := s.ObservedCorePressure(obs, core, r, at), refObservedCorePressure(s, obs, core, r, at); got != want {
				t.Fatalf("t=%d mix core=%d ObservedCorePressure(%v): got %v want %v", at, core, r, got, want)
			}
		case 4:
			if got, want := s.CPUUtilization(at), refCPUUtilization(s, at); got != want {
				t.Fatalf("t=%d mix CPUUtilization: got %v want %v", at, got, want)
			}
		case 5:
			if got, want := s.ObservedVector(obs, at), refObservedVector(s, obs, at); got != want {
				t.Fatalf("t=%d mix ObservedVector: got %v want %v", at, got, want)
			}
		case 6:
			if len(w.kernels) > 0 {
				k := w.kernels[w.rng.Intn(len(w.kernels))]
				k.Set(sim.Resource(w.rng.Intn(sim.NumResources)), float64(w.rng.Intn(100)))
			}
		}
	}
}

// check asserts every cached observable equals its reference, bit-exactly,
// and that a second (warm-cache) query returns the same value.
func (w *parityWorld) check(t *testing.T, at sim.Tick) {
	t.Helper()
	s := w.s
	observers := append(s.VMs(), nil)
	for _, obs := range observers {
		name := "nil"
		if obs != nil {
			name = obs.ID
		}
		for _, r := range sim.AllResources() {
			got := s.ObservedPressure(obs, r, at)
			want := refObservedPressure(s, obs, r, at)
			if got != want {
				t.Fatalf("t=%d observer=%s ObservedPressure(%v): got %v want %v", at, name, r, got, want)
			}
			if again := s.ObservedPressure(obs, r, at); again != got {
				t.Fatalf("t=%d observer=%s ObservedPressure(%v) warm: got %v then %v", at, name, r, got, again)
			}
		}
		gotV := s.ObservedVector(obs, at)
		wantV := refObservedVector(s, obs, at)
		if gotV != wantV {
			t.Fatalf("t=%d observer=%s ObservedVector: got %v want %v", at, name, gotV, wantV)
		}
		for core := 0; core < s.Config().Cores; core++ {
			for _, r := range sim.CoreResources() {
				got := s.ObservedCorePressure(obs, core, r, at)
				want := refObservedCorePressure(s, obs, core, r, at)
				if got != want {
					t.Fatalf("t=%d observer=%s core=%d ObservedCorePressure(%v): got %v want %v", at, name, core, r, got, want)
				}
			}
		}
		if obs != nil {
			got, want := s.Slowdown(obs, at), refSlowdown(s, obs, at)
			if got != want {
				t.Fatalf("t=%d victim=%s Slowdown: got %v want %v", at, name, got, want)
			}
		}
	}
	if got, want := s.CPUUtilization(at), refCPUUtilization(s, at); got != want {
		t.Fatalf("t=%d CPUUtilization: got %v want %v", at, got, want)
	}
	if got, want := s.HostDemand(at, sim.EveryResource), refHostDemand(s, at, sim.EveryResource); got != want {
		t.Fatalf("t=%d HostDemand: got %v want %v", at, got, want)
	}
}

func TestObservationPlaneMatchesReference(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := stats.NewRNG(uint64(trial)*7919 + 1)
		cfg := sim.ServerConfig{}
		if trial%5 == 4 {
			cfg.DedicatedCores = true
		}
		if trial%3 == 2 {
			var vis sim.Vector
			for i := range sim.AllResources() {
				vis.Set(sim.Resource(i), 0.25+0.75*rng.Float64())
			}
			cfg.Visibility = &vis
		}
		w := &parityWorld{s: sim.NewServer(fmt.Sprintf("prop%d", trial), cfg), rng: rng}
		for i := 0; i < 3; i++ {
			w.placeRandom(t)
		}
		at := sim.Tick(rng.Intn(500))
		for step := 0; step < 40; step++ {
			switch rng.Intn(6) {
			case 0:
				w.placeRandom(t)
			case 1:
				w.removeRandom()
			case 2: // retune a kernel at an unchanged tick (RFA-style)
				if len(w.kernels) > 0 {
					k := w.kernels[rng.Intn(len(w.kernels))]
					k.Set(sim.Resource(rng.Intn(sim.NumResources)), float64(rng.Intn(100)))
				}
			case 3: // reset a kernel at an unchanged tick
				if len(w.kernels) > 0 {
					w.kernels[rng.Intn(len(w.kernels))].Reset()
				}
			case 4:
				at += sim.Tick(1 + rng.Intn(50))
			case 5:
				// same tick, no mutation: exercises the warm snapshot
			}
			w.mix(t, at)
			if rng.Intn(2) == 0 {
				w.check(t, at)
			}
		}
	}
}

// TestObservationFillAllocationFree pins the per-resource fill at zero
// allocations: single-resource, MemBW-with-observer, per-core and CPU
// queries at a new tick each iteration, through App's partial kernel and
// a kernel set's whole-vector DemandInto.
func TestObservationFillAllocationFree(t *testing.T) {
	rng := stats.NewRNG(5)
	s := sim.NewServer("alloc", sim.ServerConfig{})
	for i, spec := range []workload.Spec{workload.Memcached(rng.Split(), 0), workload.Hadoop(rng.Split(), 1), workload.Spark(rng.Split(), 2)} {
		vm := &sim.VM{ID: fmt.Sprintf("app%d", i), VCPUs: 2, App: workload.NewApp(spec, workload.Diurnal{Min: 0.2, Max: 0.9, Period: 300}, rng.Uint64())}
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	k := probe.NewKernels(100)
	k.Set(sim.LLC, 60)
	adv := &sim.VM{ID: "adv", VCPUs: 4, App: k}
	if err := s.Place(adv); err != nil {
		t.Fatal(err)
	}
	tick := sim.Tick(0)
	query := func() {
		tick++
		s.ObservedPressure(nil, sim.DiskBW, tick)
		s.ObservedPressure(adv, sim.MemBW, tick)
		s.ObservedCorePressure(adv, 0, sim.CPU, tick)
		s.CPUUtilization(tick)
	}
	query() // size the snapshot
	if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
		t.Fatalf("per-resource fill allocated %.2f objects per tick, want 0", allocs)
	}
}
