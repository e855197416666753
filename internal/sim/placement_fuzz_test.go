package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// refPlacement is the slot-list placement Server used before a placement
// became two masks, kept as the reference FuzzPlacementMatchesReference
// holds Place and Remove to: free flags, each VM's slots in the order
// Place chose them, an id index, and per-VM core masks and core lists. It
// shares no mask helper with the production code.
type refPlacement struct {
	cores, tpc int
	dedicated  bool
	free       []bool
	nfree      int
	vms        []*refVM
	byID       map[string]*refVM
}

type refVM struct {
	id       string
	slots    [][2]int // (core, thread), in chosen order
	coreMask []uint64
	coreList []int
	demand   float64 // on the core resource the fuzz target queries
}

func newRefPlacement(cores, tpc int, dedicated bool) *refPlacement {
	p := &refPlacement{cores: cores, tpc: tpc, dedicated: dedicated,
		free: make([]bool, cores*tpc), nfree: cores * tpc, byID: map[string]*refVM{}}
	for i := range p.free {
		p.free[i] = true
	}
	return p
}

func (p *refPlacement) place(vm *refVM, vcpus int) error {
	if vcpus <= 0 {
		return fmt.Errorf("ref: VM %q has %d vCPUs", vm.id, vcpus)
	}
	if p.byID[vm.id] != nil {
		return fmt.Errorf("ref: VM %q already placed", vm.id)
	}
	var chosen []int
	if p.dedicated {
		coresNeeded := (vcpus + p.tpc - 1) / p.tpc
		for core := 0; core < p.cores && coresNeeded > 0; core++ {
			allFree := true
			for th := 0; th < p.tpc; th++ {
				if !p.free[core*p.tpc+th] {
					allFree = false
					break
				}
			}
			if !allFree {
				continue
			}
			for th := 0; th < p.tpc; th++ {
				chosen = append(chosen, core*p.tpc+th)
			}
			coresNeeded--
		}
		if coresNeeded > 0 {
			return ErrNoCapacity
		}
	} else {
		for th := 0; th < p.tpc && len(chosen) < vcpus; th++ {
			for core := 0; core < p.cores && len(chosen) < vcpus; core++ {
				if i := core*p.tpc + th; p.free[i] {
					chosen = append(chosen, i)
				}
			}
		}
		if len(chosen) < vcpus {
			return ErrNoCapacity
		}
	}
	vm.slots = nil
	p.nfree -= len(chosen)
	for _, i := range chosen {
		p.free[i] = false
		if !p.dedicated || len(vm.slots) < vcpus {
			vm.slots = append(vm.slots, [2]int{i / p.tpc, i % p.tpc})
		}
	}
	vm.coreMask = make([]uint64, (p.cores+63)/64)
	for _, sl := range vm.slots {
		vm.coreMask[sl[0]/64] |= 1 << (sl[0] % 64)
	}
	vm.coreList = nil
	for c := 0; c < p.cores; c++ {
		if vm.coreMask[c/64]&(1<<(c%64)) != 0 {
			vm.coreList = append(vm.coreList, c)
		}
	}
	p.vms = append(p.vms, vm)
	p.byID[vm.id] = vm
	return nil
}

func (p *refPlacement) remove(id string) bool {
	vm := p.byID[id]
	if vm == nil {
		return false
	}
	for _, sl := range vm.slots {
		if p.dedicated {
			for th := 0; th < p.tpc; th++ {
				if i := sl[0]*p.tpc + th; !p.free[i] {
					p.free[i] = true
					p.nfree++
				}
			}
		} else {
			p.free[sl[0]*p.tpc+sl[1]] = true
			p.nfree++
		}
	}
	vm.slots, vm.coreMask, vm.coreList = nil, nil, nil
	p.vms = slices.DeleteFunc(p.vms, func(v *refVM) bool { return v == vm })
	delete(p.byID, id)
	return true
}

// refShare reports whether two reference VMs' core masks share a bit.
func refShare(a, b *refVM) bool {
	if a == nil || b == nil || a == b {
		return false
	}
	for w := 0; w < len(a.coreMask) && w < len(b.coreMask); w++ {
		if a.coreMask[w]&b.coreMask[w] != 0 {
			return true
		}
	}
	return false
}

// pressure is the reference core-resource reading: the demands of the VMs
// sharing a core with observer, summed in placement order, clamped.
func (p *refPlacement) pressure(observer *refVM) float64 {
	total := 0.0
	for _, vm := range p.vms {
		if vm != observer && refShare(observer, vm) {
			total += vm.demand
		}
	}
	return math.Min(total, 100)
}

// FuzzPlacementMatchesReference holds Place and Remove to refPlacement on
// fuzzed hosts (1–16 cores, 1–3 threads per core, shared or dedicated) and
// operation sequences, read two bytes at a time as (op, arg): an even op
// places a fresh VM of (op/2)%9 vCPUs, zero included, under id arg%12, so
// ids repeat; an odd op removes id arg%16, present or not. After every
// operation it compares the error, FreeVCPUs, the free-slot mask, VMCount
// and placement order, Lookup of every id, each VM's Cores() and slot set,
// SharesCore for every pair, and ObservedPressure on L1D from every VM and
// from none.
func FuzzPlacementMatchesReference(f *testing.F) {
	f.Add(uint8(8), uint8(2), false, []byte{2, 0, 4, 1, 6, 2, 1, 1, 8, 3, 2, 1})
	f.Add(uint8(4), uint8(2), true, []byte{2, 0, 4, 1, 6, 2, 1, 0, 3, 5, 2, 3, 16, 4})
	f.Add(uint8(3), uint8(3), true, []byte{4, 0, 2, 1, 1, 0, 6, 2, 1, 1, 2, 3, 0, 4})
	f.Add(uint8(16), uint8(1), false, []byte{16, 0, 16, 1, 2, 2, 1, 0, 14, 3, 1, 13})
	f.Add(uint8(1), uint8(3), false, []byte{2, 0, 2, 1, 2, 2, 2, 3, 1, 1, 2, 4})
	f.Fuzz(func(t *testing.T, cores, threads uint8, dedicated bool, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		nc, tpc := 1+int(cores)%16, 1+int(threads)%3
		s := NewServer("fuzz", ServerConfig{Cores: nc, ThreadsPerCore: tpc, DedicatedCores: dedicated})
		ref := newRefPlacement(nc, tpc, dedicated)
		live := map[string]*VM{} // id → the VM Place accepted under it
		for step := 0; len(ops) >= 2; step++ {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			var what string
			if op%2 == 0 {
				id, vcpus := fmt.Sprintf("v%d", arg%12), int(op/2)%9
				demand := float64(1 + int(arg)%60)
				vm := newVM(id, vcpus, vec(map[Resource]float64{L1D: demand}))
				got, want := s.Place(vm), ref.place(&refVM{id: id, demand: demand}, vcpus)
				what = fmt.Sprintf("step %d: Place(%s, %d vCPUs)", step, id, vcpus)
				if (got == nil) != (want == nil) || errors.Is(got, ErrNoCapacity) != errors.Is(want, ErrNoCapacity) {
					t.Fatalf("%s = %v, reference %v", what, got, want)
				}
				if got == nil {
					live[id] = vm
				}
			} else {
				id := fmt.Sprintf("v%d", arg%16)
				what = fmt.Sprintf("step %d: Remove(%s)", step, id)
				if got, want := s.Remove(id), ref.remove(id); got != want {
					t.Fatalf("%s = %v, reference %v", what, got, want)
				}
				delete(live, id)
			}
			samePlacement(t, what, s, ref, live)
		}
	})
}

// samePlacement compares everything a caller can read of s's placement
// with the reference's.
func samePlacement(t *testing.T, what string, s *Server, ref *refPlacement, live map[string]*VM) {
	t.Helper()
	if s.FreeVCPUs() != ref.nfree {
		t.Fatalf("%s: FreeVCPUs = %d, reference %d", what, s.FreeVCPUs(), ref.nfree)
	}
	for i, f := range ref.free {
		if (s.free>>i&1 == 1) != f {
			t.Fatalf("%s: slot %d free = %v, reference %v", what, i, !f, f)
		}
	}
	if s.VMCount() != len(ref.vms) {
		t.Fatalf("%s: VMCount = %d, reference %d", what, s.VMCount(), len(ref.vms))
	}
	for i, vm := range s.VMs() {
		if vm.ID != ref.vms[i].id {
			t.Fatalf("%s: VM %d is %s, reference %s", what, i, vm.ID, ref.vms[i].id)
		}
	}
	for k := 0; k < 16; k++ {
		id := fmt.Sprintf("v%d", k)
		if got, want := s.Lookup(id), live[id]; got != want || (want != nil) != (ref.byID[id] != nil) {
			t.Fatalf("%s: Lookup(%s) = %v, want %v (reference holds it: %v)", what, id, got, want, ref.byID[id] != nil)
		}
	}
	observers := []*VM{nil}
	refObservers := []*refVM{nil}
	for _, r := range ref.vms {
		vm := live[r.id]
		if got := vm.Cores(); !slices.Equal(got, r.coreList) {
			t.Fatalf("%s: %s Cores() = %v, reference %v", what, r.id, got, r.coreList)
		}
		var slots []int
		for _, sl := range r.slots {
			slots = append(slots, sl[0]*ref.tpc+sl[1])
		}
		slices.Sort(slots)
		if got := vm.Slots(); !slices.Equal(got, slots) {
			t.Fatalf("%s: %s Slots() = %v, reference %v", what, r.id, got, slots)
		}
		observers, refObservers = append(observers, vm), append(refObservers, r)
	}
	for i, a := range observers {
		for j, b := range observers {
			if got, want := s.SharesCore(a, b), refShare(refObservers[i], refObservers[j]); got != want {
				t.Fatalf("%s: SharesCore(%s, %s) = %v, reference %v", what, name(a), name(b), got, want)
			}
		}
		got, want := s.ObservedPressure(a, L1D, 0), ref.pressure(refObservers[i])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: ObservedPressure(%s, L1D) = %v, reference %v", what, name(a), got, want)
		}
	}
}

func name(vm *VM) string {
	if vm == nil {
		return "nil"
	}
	return vm.ID
}
