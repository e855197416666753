package sim

import (
	"errors"
	"fmt"
)

// Tick is the simulator's time unit. TickDur is its wall-clock meaning; the
// paper's probes run for a few hundred milliseconds each, so one tick is
// 100 ms throughout the repository.
type Tick int64

// TickMillis is the wall-clock duration of one tick in milliseconds.
const TickMillis = 100

// TicksPerSecond converts between ticks and seconds.
const TicksPerSecond = 1000 / TickMillis

// Seconds returns the tick count as seconds.
func (t Tick) Seconds() float64 { return float64(t) / TicksPerSecond }

// Demander is the behaviour a VM exposes to the host: the pressure it puts
// on every shared resource at a given time (as a percentage of the host's
// capacity for that resource) and its sensitivity to contention on each
// resource (0-1). Application models in internal/workload implement it.
//
// Demand(t) must be deterministic for a fixed t and fixed world state:
// the server's observation plane evaluates each VM's demand at most once
// per resource per tick and serves every same-tick observation from that
// snapshot. A Demander whose output can change between two calls at the
// same tick (because some out-of-band state was mutated, like a contention
// kernel's intensity) must also implement DemandVersioner so the snapshot
// can be invalidated.
//
// DemandInto is how the plane fills its snapshot: it writes Demand(t)[r]
// into out[r] for every r in need, bit for bit. It may write other entries
// of out, but only with their true values, so a Demander that has the
// whole vector at hand (a kernel set, a reactive wrapper) simply stores it.
type Demander interface {
	Demand(t Tick) Vector
	DemandInto(t Tick, out *Vector, need ResourceSet)
	Sensitivity() Vector
}

// DemandVersioner is implemented by Demanders whose Demand(t) can change
// at a fixed tick through out-of-band mutation (probe kernels being
// retuned, an attack toggling its helpers). DemandVersion must return a
// counter that increases whenever the next Demand or DemandInto call might
// differ from the previous one at the same tick. Mutations that arrive
// through the server itself — placement changes — are tracked by the
// server's own epoch and need no version; and a Demander that derives its
// output from co-residents' demands (workload.Reactive) is covered
// transitively, because any change to its inputs either bumps a version or
// the epoch, and invalidation discards the whole snapshot.
type DemandVersioner interface {
	DemandVersion() uint64
}

// Slot identifies one hyperthread: physical core index and thread index
// within the core.
type Slot struct {
	Core, Thread int
}

// VM is one virtual machine (or container, or baremetal process — the
// platform distinction lives in internal/isolation) placed on a server.
type VM struct {
	ID    string
	VCPUs int
	// App is the VM's behaviour. A placed VM's App is not reassigned: the
	// observation plane resolves which Apps are DemandVersioners once per
	// placement epoch. Swap an App only while its VM is off every server.
	App Demander

	slots []Slot
	// coreMask has bit c set when the VM holds a hyperthread of physical
	// core c; coreList is the same set as a sorted slice. Both are
	// maintained by Place/Remove so topology queries on the observation
	// hot path never rebuild a set per call.
	coreMask []uint64
	coreList []int
}

// Slots returns a copy of the hyperthread slots assigned to the VM.
// In-package hot paths iterate vm.slots directly.
func (vm *VM) Slots() []Slot {
	return append([]Slot(nil), vm.slots...)
}

// Cores returns the physical core indices the VM occupies, in ascending
// order. The set is precomputed by Place; the returned slice is a copy.
// In-package hot paths use vm.coreList / vm.coreMask directly.
func (vm *VM) Cores() []int {
	return append([]int(nil), vm.coreList...)
}

// occupiesCore reports whether the VM holds a hyperthread of core c.
//
//bolt:hotpath
func (vm *VM) occupiesCore(c int) bool {
	w := uint(c) >> 6
	return int(w) < len(vm.coreMask) && vm.coreMask[w]&(1<<(uint(c)&63)) != 0
}

// rebuildCoreCache recomputes coreMask/coreList from the VM's slots.
func (vm *VM) rebuildCoreCache(hostCores int) {
	words := (hostCores + 63) / 64
	if cap(vm.coreMask) < words {
		vm.coreMask = make([]uint64, words)
	} else {
		vm.coreMask = vm.coreMask[:words]
		for i := range vm.coreMask {
			vm.coreMask[i] = 0
		}
	}
	for _, sl := range vm.slots {
		vm.coreMask[uint(sl.Core)>>6] |= 1 << (uint(sl.Core) & 63)
	}
	if cap(vm.coreList) < len(vm.slots) {
		vm.coreList = make([]int, 0, len(vm.slots)) // a VM holds at most one core per slot
	}
	vm.coreList = vm.coreList[:0]
	for c := 0; c < hostCores; c++ {
		if vm.occupiesCore(c) {
			vm.coreList = append(vm.coreList, c)
		}
	}
}

// masksOverlap reports whether two core masks share a set bit.
//
//bolt:hotpath
func masksOverlap(a, b []uint64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// ServerConfig describes a physical host. The defaults model the paper's
// testbed: 8 physical cores, 2-way hyperthreading.
type ServerConfig struct {
	Cores          int // physical cores; 0 means 8
	ThreadsPerCore int // hyperthreads per core; 0 means 2
	// Visibility attenuates the contention observable (and felt) on each
	// resource, 0-1. Isolation mechanisms lower entries; the zero value is
	// replaced with full visibility (all ones).
	Visibility *Vector
	// DedicatedCores forbids two VMs from sharing a physical core (the
	// paper's "core isolation" defence, §6).
	DedicatedCores bool
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.ThreadsPerCore == 0 {
		c.ThreadsPerCore = 2
	}
	if c.Visibility == nil {
		var v Vector
		for i := range v {
			v[i] = 1
		}
		c.Visibility = &v
	}
	return c
}

// Server is one physical host: a hyperthread topology plus the set of VMs
// placed on it. It is the substrate probes measure against and attacks run
// on. Server is not safe for concurrent use.
type Server struct {
	cfg  ServerConfig
	name string
	vms  []*VM
	// free[i] is true when hyperthread slot i (core i/tpc, thread i%tpc) is
	// unoccupied; nfree counts the true entries, kept in step by Place and
	// Remove so FreeVCPUs — which schedulers call for every server on every
	// pick — is O(1).
	free  []bool
	nfree int
	// byID indexes vms by VM.ID so Lookup (and Place's duplicate check) is
	// O(1); cluster construction used to be O(n²) in VMs per host.
	byID map[string]*VM
	// epoch counts placement changes; the observation snapshot records the
	// epoch it was built at and rebuilds when they diverge.
	epoch uint64
	// obs is the per-tick observation snapshot (observation.go).
	obs obsPlane
	// obsFault, when set, intercepts single-resource sensor readings served
	// to obsFaultVM (the registered adversary); see SetObservationFault.
	obsFault   ObservationFault
	obsFaultVM *VM
}

// ErrNoCapacity is returned when a VM cannot be placed on a server.
var ErrNoCapacity = errors.New("sim: insufficient vCPU capacity")

// NewServer returns an empty server with the given configuration.
func NewServer(name string, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		name: name,
		free: make([]bool, cfg.Cores*cfg.ThreadsPerCore),
		byID: make(map[string]*VM),
	}
	for i := range s.free {
		s.free[i] = true
	}
	s.nfree = len(s.free)
	return s
}

// Name returns the server's identifier.
func (s *Server) Name() string { return s.name }

// Config returns the server's configuration.
func (s *Server) Config() ServerConfig { return s.cfg }

// TotalVCPUs returns the host's hyperthread count.
func (s *Server) TotalVCPUs() int { return s.cfg.Cores * s.cfg.ThreadsPerCore }

// FreeVCPUs returns the number of unassigned hyperthreads.
func (s *Server) FreeVCPUs() int { return s.nfree }

// VMs returns a copy of the VMs currently placed on the server.
// In-package hot paths iterate s.vms directly.
func (s *Server) VMs() []*VM {
	return append([]*VM(nil), s.vms...)
}

// VMCount returns the number of VMs placed on the server without copying
// the slice — the per-server occupancy read a fleet tick takes on every
// host every tick.
//
//bolt:hotpath
func (s *Server) VMCount() int { return len(s.vms) }

// Lookup returns the VM with the given ID, or nil.
//
//bolt:hotpath
func (s *Server) Lookup(id string) *VM {
	return s.byID[id]
}

func (s *Server) slotIndex(sl Slot) int {
	return sl.Core*s.cfg.ThreadsPerCore + sl.Thread
}

func (s *Server) slotAt(i int) Slot {
	return Slot{Core: i / s.cfg.ThreadsPerCore, Thread: i % s.cfg.ThreadsPerCore}
}

// Place assigns hyperthread slots to the VM and adds it to the server.
// Placement policy: hyperthreads of one VM are packed onto as few physical
// cores as possible (matching how cloud providers expose paired vCPUs), and
// no hyperthread is ever shared between two VMs — the paper notes 1 vCPU is
// the minimum dedicated unit in public clouds. Under DedicatedCores a VM is
// only placed on cores none of whose threads belong to another VM, and the
// whole core is reserved.
func (s *Server) Place(vm *VM) error {
	if vm.VCPUs <= 0 {
		return fmt.Errorf("sim: VM %q has %d vCPUs", vm.ID, vm.VCPUs)
	}
	if s.byID[vm.ID] != nil {
		return fmt.Errorf("sim: VM %q already placed on %s", vm.ID, s.name)
	}
	tpc := s.cfg.ThreadsPerCore

	// chosen stays on the stack for any VM of up to 64 hyperthreads.
	var buf [64]int
	chosen := buf[:0]
	if s.cfg.DedicatedCores {
		// Reserve whole cores: ceil(vcpus / tpc) fully free cores.
		coresNeeded := (vm.VCPUs + tpc - 1) / tpc
		for core := 0; core < s.cfg.Cores && coresNeeded > 0; core++ {
			allFree := true
			for th := 0; th < tpc; th++ {
				if !s.free[core*tpc+th] {
					allFree = false
					break
				}
			}
			if !allFree {
				continue
			}
			for th := 0; th < tpc; th++ {
				chosen = append(chosen, core*tpc+th)
			}
			coresNeeded--
		}
		if coresNeeded > 0 {
			return ErrNoCapacity
		}
	} else {
		// Breadth-first over cores: fill thread 0 of every core before any
		// thread 1, the way OS and hypervisor schedulers spread runnable
		// vCPUs to maximise per-thread throughput. As the host fills up,
		// later VMs land on the second hyperthreads of earlier VMs' cores —
		// which is exactly why hyperthread co-residency with strangers is
		// the norm in multi-tenant clouds (§3.4).
		for th := 0; th < tpc && len(chosen) < vm.VCPUs; th++ {
			for core := 0; core < s.cfg.Cores && len(chosen) < vm.VCPUs; core++ {
				if i := core*tpc + th; s.free[i] {
					chosen = append(chosen, i)
				}
			}
		}
		if len(chosen) < vm.VCPUs {
			return ErrNoCapacity
		}
	}

	if cap(vm.slots) < vm.VCPUs {
		vm.slots = make([]Slot, 0, vm.VCPUs)
	}
	vm.slots = vm.slots[:0]
	s.nfree -= len(chosen)
	for _, i := range chosen {
		s.free[i] = false
		if !s.cfg.DedicatedCores || len(vm.slots) < vm.VCPUs {
			vm.slots = append(vm.slots, s.slotAt(i))
		}
	}
	// Under DedicatedCores extra reserved threads stay marked used but are
	// not listed as VM slots; they are simply burned capacity (the paper's
	// utilisation penalty).
	vm.rebuildCoreCache(s.cfg.Cores)
	s.vms = append(s.vms, vm)
	s.byID[vm.ID] = vm
	s.epoch++
	return nil
}

// Remove detaches the VM with the given ID, freeing its slots (and, under
// DedicatedCores, the rest of each reserved core). It reports whether a VM
// was removed.
func (s *Server) Remove(id string) bool {
	vm := s.byID[id]
	if vm == nil {
		return false
	}
	for _, sl := range vm.slots {
		if s.cfg.DedicatedCores {
			// Two of the VM's slots can share a reserved core, so count
			// only the threads this pass actually frees.
			for th := 0; th < s.cfg.ThreadsPerCore; th++ {
				if i := sl.Core*s.cfg.ThreadsPerCore + th; !s.free[i] {
					s.free[i] = true
					s.nfree++
				}
			}
		} else {
			s.free[s.slotIndex(sl)] = true
			s.nfree++
		}
	}
	vm.slots = nil
	vm.coreMask = nil
	vm.coreList = nil
	for i, v := range s.vms {
		if v == vm {
			s.vms = append(s.vms[:i], s.vms[i+1:]...)
			break
		}
	}
	delete(s.byID, id)
	s.epoch++
	return true
}

// SharesCore reports whether the two VMs occupy hyperthreads of at least one
// common physical core.
//
//bolt:hotpath
func (s *Server) SharesCore(a, b *VM) bool {
	if a == nil || b == nil || a == b {
		return false
	}
	return masksOverlap(a.coreMask, b.coreMask)
}

// sharesAnyCore reports whether the observer shares a physical core with
// any VM placed on the server.
//
//bolt:hotpath
func (s *Server) sharesAnyCore(observer *VM) bool {
	if observer == nil {
		return false
	}
	for _, vm := range s.vms {
		if vm != observer && masksOverlap(observer.coreMask, vm.coreMask) {
			return true
		}
	}
	return false
}

// VMsOnCore returns the VMs other than observer holding a hyperthread of
// the given physical core.
func (s *Server) VMsOnCore(observer *VM, coreIdx int) []*VM {
	var out []*VM
	for _, vm := range s.vms {
		if vm != observer && vm.occupiesCore(coreIdx) {
			out = append(out, vm)
		}
	}
	return out
}

// CacheSpillFactor returns how strongly an application's memory traffic
// responds to losing last-level-cache capacity: a cache-resident workload
// (high LLC pressure, modest streaming bandwidth) converts squeezed cache
// into extra DRAM traffic almost one-for-one, while a streaming workload is
// already missing and barely changes. This is the physical effect behind
// miss-ratio curves, and the signal the §3.3 future-work extension (per-job
// cache miss rate curves) exploits. d is read through a pointer so the
// snapshot's entries are not copied per co-resident.
func CacheSpillFactor(d *Vector) float64 {
	llc, bw := d[LLC], d[MemBW]
	if llc == 0 {
		return 0
	}
	return llc / (llc + bw + 20)
}

// SpillScale converts squeezed-cache pressure into extra observed memory
// bandwidth (dimensionless; <1 because some misses hit deeper caches or
// get amortised by prefetching).
const SpillScale = 0.4
