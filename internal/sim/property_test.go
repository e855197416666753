package sim

import (
	"testing"
	"testing/quick"

	"bolt/internal/stats"
)

// randomServer builds a server with a random population of VMs exerting
// random demand, for property tests.
func randomServer(seed uint64) (*Server, *stats.RNG) {
	rng := stats.NewRNG(seed)
	s := NewServer("prop", ServerConfig{
		Cores:          2 + rng.Intn(14),
		ThreadsPerCore: 1 + rng.Intn(2),
	})
	n := rng.Intn(6)
	for i := 0; i < n; i++ {
		var demand Vector
		for r := range demand {
			demand[r] = rng.Range(0, 100)
		}
		vm := newVM(string(rune('a'+i)), 1+rng.Intn(4), demand)
		if err := s.Place(vm); err != nil {
			break
		}
	}
	return s, rng
}

func TestPropObservedPressureBounded(t *testing.T) {
	f := func(seed uint64) bool {
		s, _ := randomServer(seed)
		observer := newVM("obs", 2, Vector{})
		if err := s.Place(observer); err != nil {
			return true // full host: nothing to check
		}
		for _, r := range AllResources() {
			p := s.ObservedPressure(observer, r, 0)
			if p < 0 || p > 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropPerCorePressureNeverExceedsAggregate(t *testing.T) {
	// The aggregate core observation sums every core-sharing VM; a single
	// core's sibling pressure can never exceed it (before clamping).
	f := func(seed uint64) bool {
		s, _ := randomServer(seed)
		observer := newVM("obs", 4, Vector{})
		if err := s.Place(observer); err != nil {
			return true
		}
		for _, r := range CoreResources() {
			agg := s.ObservedPressure(observer, r, 0)
			for _, core := range observer.Cores() {
				per := s.ObservedCorePressure(observer, core, r, 0)
				if per > agg+1e-9 && agg < 100 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSlowdownAtLeastOne(t *testing.T) {
	f := func(seed uint64) bool {
		s, rng := randomServer(seed)
		var demand, sens Vector
		for r := range demand {
			demand[r] = rng.Range(0, 100)
			sens[r] = rng.Range(0, 100)
		}
		victim := &VM{ID: "victim", VCPUs: 2, App: fixedApp{demand, sens.Scale(0.01)}}
		if err := s.Place(victim); err != nil {
			return true
		}
		return s.Slowdown(victim, 0) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropPlacementNeverDoubleBooks(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := NewServer("prop", ServerConfig{
			Cores:          2 + rng.Intn(8),
			ThreadsPerCore: 2,
			DedicatedCores: rng.Bool(0.3),
		})
		var vms []*VM
		for i := 0; i < 10; i++ {
			vm := newVM(string(rune('a'+i)), 1+rng.Intn(5), Vector{})
			if err := s.Place(vm); err == nil {
				vms = append(vms, vm)
			}
			// Randomly remove someone to exercise slot recycling.
			if len(vms) > 0 && rng.Bool(0.3) {
				victim := vms[rng.Intn(len(vms))]
				s.Remove(victim.ID)
				for j, v := range vms {
					if v == victim {
						vms = append(vms[:j], vms[j+1:]...)
						break
					}
				}
			}
		}
		// Invariant: no hyperthread slot belongs to two VMs.
		seen := map[Slot]string{}
		for _, vm := range s.VMs() {
			for _, sl := range vm.Slots() {
				if owner, taken := seen[sl]; taken {
					t.Logf("slot %v owned by %s and %s", sl, owner, vm.ID)
					return false
				}
				seen[sl] = vm.ID
			}
		}
		// Invariant: used + free = total.
		used := 0
		for _, vm := range s.VMs() {
			used += len(vm.Slots())
		}
		if s.Config().DedicatedCores {
			// Reserved-but-unlisted threads make used ≤ total − free.
			return used <= s.TotalVCPUs()-s.FreeVCPUs()
		}
		return used == s.TotalVCPUs()-s.FreeVCPUs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropFreeVCPUsMatchesSlotFlags pins the running free-thread count
// against a recount of the free-slot flags after every Place and Remove of
// a random sequence — on shared hosts, and on DedicatedCores hosts, where
// Remove frees whole cores and two of a VM's slots can share one.
func TestPropFreeVCPUsMatchesSlotFlags(t *testing.T) {
	for _, dedicated := range []bool{false, true} {
		f := func(seed uint64) bool {
			rng := stats.NewRNG(seed)
			s := NewServer("prop", ServerConfig{
				Cores:          1 + rng.Intn(10),
				ThreadsPerCore: 1 + rng.Intn(3),
				DedicatedCores: dedicated,
			})
			recount := func() int {
				n := 0
				for _, f := range s.free {
					if f {
						n++
					}
				}
				return n
			}
			var ids []string
			for op := 0; op < 40; op++ {
				if len(ids) > 0 && rng.Bool(0.4) {
					k := rng.Intn(len(ids))
					s.Remove(ids[k])
					if rng.Bool(0.2) {
						s.Remove(ids[k]) // a second Remove is a no-op
					}
					ids = append(ids[:k], ids[k+1:]...)
				} else {
					id := string(rune('a' + op))
					if s.Place(newVM(id, 1+rng.Intn(5), Vector{})) == nil {
						ids = append(ids, id)
					}
				}
				if got, want := s.FreeVCPUs(), recount(); got != want {
					t.Logf("dedicated=%v op %d: FreeVCPUs = %d, free-slot flags count %d", dedicated, op, got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("dedicated=%v: %v", dedicated, err)
		}
	}
}

func TestPropSharesCoreSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		s, _ := randomServer(seed)
		vms := s.VMs()
		for i := range vms {
			for j := range vms {
				if s.SharesCore(vms[i], vms[j]) != s.SharesCore(vms[j], vms[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropDedicatedCoresNeverShared(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := NewServer("prop", ServerConfig{Cores: 8, ThreadsPerCore: 2, DedicatedCores: true})
		for i := 0; i < 8; i++ {
			vm := newVM(string(rune('a'+i)), 1+rng.Intn(4), Vector{})
			if err := s.Place(vm); err != nil {
				break
			}
		}
		vms := s.VMs()
		for i := range vms {
			for j := i + 1; j < len(vms); j++ {
				if s.SharesCore(vms[i], vms[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVMsOnCore(t *testing.T) {
	s := NewServer("s0", ServerConfig{Cores: 2, ThreadsPerCore: 2})
	a := newVM("a", 1, Vector{}) // (0,0)
	b := newVM("b", 1, Vector{}) // (1,0)
	c := newVM("c", 2, Vector{}) // (0,1),(1,1)
	for _, vm := range []*VM{a, b, c} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	on0 := s.VMsOnCore(a, 0)
	if len(on0) != 1 || on0[0] != c {
		t.Fatalf("VMsOnCore(a, 0) = %v, want [c]", on0)
	}
	if got := s.VMsOnCore(c, 0); len(got) != 1 || got[0] != a {
		t.Fatalf("VMsOnCore(c, 0) = %v, want [a]", got)
	}
}

func TestObservedCorePressurePerCore(t *testing.T) {
	s := NewServer("s0", ServerConfig{Cores: 2, ThreadsPerCore: 2})
	obs := newVM("obs", 2, Vector{})                         // cores 0,1 thread 0
	v1 := newVM("v1", 1, vec(map[Resource]float64{L1I: 60})) // (0,1)
	v2 := newVM("v2", 1, vec(map[Resource]float64{L1I: 30})) // (1,1)
	for _, vm := range []*VM{obs, v1, v2} {
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ObservedCorePressure(obs, 0, L1I, 0); got != 60 {
		t.Fatalf("core 0 pressure = %v, want 60 (v1 only)", got)
	}
	if got := s.ObservedCorePressure(obs, 1, L1I, 0); got != 30 {
		t.Fatalf("core 1 pressure = %v, want 30 (v2 only)", got)
	}
	// Aggregate sums both siblings.
	if got := s.ObservedPressure(obs, L1I, 0); got != 90 {
		t.Fatalf("aggregate = %v, want 90", got)
	}
	// Uncore falls back to the host-wide observation.
	if got := s.ObservedCorePressure(obs, 0, LLC, 0); got != s.ObservedPressure(obs, LLC, 0) {
		t.Fatal("uncore per-core query should match the host-wide one")
	}
}
