package sim

import (
	"errors"
	"fmt"
	"math/bits"
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
// kernel's intensity) must implement RetunableDemander, so the snapshot
// checks its demand before serving from it.
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

// RetunableDemander is implemented by Demanders whose Demand(t) can change
// at a fixed tick through out-of-band mutation (probe kernels being
// retuned, an attack toggling its helpers). The observation plane keys its
// snapshot on each such VM's Demand(t) as it was when the key was taken,
// and asks again before serving from it: a retune needs no bookkeeping,
// and one undone before the next observation costs no refill. Mutations
// that arrive through the server itself — placement changes — are tracked
// by the server's own epoch; and a Demander that derives its output from
// co-residents' demands (workload.Reactive) is covered transitively,
// because any change to its inputs either moves a retunable demand or the
// epoch, and invalidation discards the whole snapshot.
type RetunableDemander interface {
	Demander
	// Retunable marks the type; the plane never calls it.
	Retunable()
}

// VM is one virtual machine (or container, or baremetal process — the
// platform distinction lives in internal/isolation) placed on a server.
type VM struct {
	ID    string
	VCPUs int
	// App is the VM's behaviour. A placed VM's App is not reassigned: the
	// observation plane resolves which Apps are RetunableDemanders once per
	// placement epoch. Swap an App only while its VM is off every server.
	App Demander

	// threads has bit i set when the VM holds hyperthread slot i of its
	// host (core i/tpc, thread i%tpc); cores has bit c set when it holds a
	// hyperthread of physical core c. Place sets both and Remove clears
	// them, so a placement is two words and a topology query is one AND.
	threads, cores uint64
}

// Slots returns the hyperthread slots the VM holds, in ascending slot
// index order; slot i is thread i%tpc of core i/tpc on a host with tpc
// threads per core. In-package hot paths test vm.threads directly.
func (vm *VM) Slots() []int { return setBits(vm.threads) }

// Cores returns the physical core indices the VM occupies, in ascending
// order. In-package hot paths test vm.cores directly.
func (vm *VM) Cores() []int { return setBits(vm.cores) }

// setBits returns the indices of m's set bits, ascending.
func setBits(m uint64) []int {
	var out []int
	for ; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros64(m))
	}
	return out
}

// occupiesCore reports whether the VM holds a hyperthread of core c.
//
//bolt:hotpath
func (vm *VM) occupiesCore(c int) bool { return vm.cores>>uint(c)&1 != 0 }

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
	return c
}

// Server is one physical host: a hyperthread topology plus the set of VMs
// placed on it. It is the substrate probes measure against and attacks run
// on. Server is not safe for concurrent use.
type Server struct {
	cfg     ServerConfig
	name    string
	ordinal int // position in the NewServers call that built it
	// vms is carved at capacity TotalVCPUs by NewServers: every VM holds at
	// least one hyperthread, so it never grows, and Lookup's scan of it is
	// bounded by the host's thread count.
	vms []*VM
	// free has bit i set when hyperthread slot i (core i/tpc, thread i%tpc)
	// is unoccupied; nfree is its population count, kept in step by Place
	// and Remove so FreeVCPUs — which schedulers call for every server on
	// every pick — is one load.
	free  uint64
	nfree int
	// vis is the visibility vector the configuration names, all ones when
	// it names none; cfg.Visibility points at it.
	vis Vector
	// epoch counts placement changes; the observation snapshot records the
	// epoch it was built at and rebuilds when they diverge.
	epoch uint64
	// obs is the per-tick observation snapshot (observation.go).
	obs obsPlane
	// obsFault, when set, intercepts single-resource sensor readings served
	// to obsFaultVM (the registered adversary); see SetObservationFault.
	obsFault   ObservationFault
	obsFaultVM *VM
	// coreDemand receives one resource of one VM's demand at a time on
	// ObservedCorePressure's live path; coreReading is set while that path
	// runs, so a read re-entered from a DemandInto leaves the buffer alone.
	coreDemand  Vector
	coreReading bool
}

// ErrNoCapacity is returned when a VM cannot be placed on a server.
var ErrNoCapacity = errors.New("sim: insufficient vCPU capacity")

// NewServer returns an empty server with the given configuration. It
// panics unless the host has between 1 and 64 hyperthreads
// (Cores·ThreadsPerCore): a placement is a 64-bit slot mask.
func NewServer(name string, cfg ServerConfig) *Server {
	return NewServers([]string{name}, cfg)[0]
}

// NewServers returns one empty server per name, all with the given
// configuration, built from one slab of servers and one backing array for
// their VM lists. It panics as NewServer does.
func NewServers(names []string, cfg ServerConfig) []*Server {
	cfg = cfg.withDefaults()
	total := cfg.Cores * cfg.ThreadsPerCore
	if cfg.Cores < 1 || cfg.ThreadsPerCore < 1 || total > 64 {
		panic(fmt.Sprintf("sim: a %d-core host with %d threads per core is outside 1–64 hyperthreads", cfg.Cores, cfg.ThreadsPerCore))
	}
	slab := make([]Server, len(names))
	vms := make([]*VM, len(names)*total)
	out := make([]*Server, len(names))
	for i := range slab {
		s := &slab[i]
		s.cfg, s.name, s.ordinal = cfg, names[i], i
		s.vms = vms[i*total : i*total : (i+1)*total]
		s.free, s.nfree = 1<<total-1, total // 1<<64 is 0 in Go, so 64 threads give all ones
		if cfg.Visibility != nil {
			s.vis = *cfg.Visibility
		} else {
			for r := range s.vis {
				s.vis[r] = 1
			}
		}
		s.cfg.Visibility = &s.vis
		out[i] = s
	}
	return out
}

// Name returns the server's identifier.
func (s *Server) Name() string { return s.name }

// Ordinal returns the server's position among the servers returned by
// the NewServers call that built it (0 for NewServer).
func (s *Server) Ordinal() int { return s.ordinal }

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

// Lookup returns the VM with the given ID, or nil. It scans the placed
// VMs, at most one per hyperthread.
//
//bolt:hotpath
func (s *Server) Lookup(id string) *VM {
	if i := s.index(id); i >= 0 {
		return s.vms[i]
	}
	return nil
}

// index returns the position in s.vms of the VM with the given ID, or -1.
//
//bolt:hotpath
func (s *Server) index(id string) int {
	for i, vm := range s.vms {
		if vm.ID == id {
			return i
		}
	}
	return -1
}

// coreThreads returns the slot mask of every hyperthread of core c.
func (s *Server) coreThreads(c int) uint64 {
	tpc := s.cfg.ThreadsPerCore
	return (1<<tpc - 1) << (c * tpc)
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
	if s.index(vm.ID) >= 0 {
		return fmt.Errorf("sim: VM %q already placed on %s", vm.ID, s.name)
	}
	tpc := s.cfg.ThreadsPerCore

	var take uint64
	if s.cfg.DedicatedCores {
		// Reserve whole cores: ceil(vcpus / tpc) fully free cores.
		coresNeeded := (vm.VCPUs + tpc - 1) / tpc
		for core := 0; core < s.cfg.Cores && coresNeeded > 0; core++ {
			if m := s.coreThreads(core); s.free&m == m {
				take |= m
				coresNeeded--
			}
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
		need := vm.VCPUs
		for th := 0; th < tpc && need > 0; th++ {
			for i := th; i < s.TotalVCPUs() && need > 0; i += tpc {
				if s.free>>i&1 != 0 {
					take |= 1 << i
					need--
				}
			}
		}
		if need > 0 {
			return ErrNoCapacity
		}
	}

	s.free &^= take
	s.nfree -= bits.OnesCount64(take)
	// Under DedicatedCores the reserved threads past the VM's vCPUs (the
	// highest ones) stay marked used but are not the VM's; they are simply
	// burned capacity (the paper's utilisation penalty).
	for extra := bits.OnesCount64(take) - vm.VCPUs; extra > 0; extra-- {
		take &^= 1 << (63 - bits.LeadingZeros64(take))
	}
	vm.threads, vm.cores = take, 0
	for m := take; m != 0; m &= m - 1 {
		vm.cores |= 1 << (bits.TrailingZeros64(m) / tpc)
	}
	s.vms = append(s.vms, vm)
	s.epoch++
	return nil
}

// Remove detaches the VM with the given ID, freeing its slots (and, under
// DedicatedCores, the rest of each reserved core). It reports whether a VM
// was removed.
func (s *Server) Remove(id string) bool {
	i := s.index(id)
	if i < 0 {
		return false
	}
	vm := s.vms[i]
	freed := vm.threads
	if s.cfg.DedicatedCores {
		for m := vm.cores; m != 0; m &= m - 1 {
			freed |= s.coreThreads(bits.TrailingZeros64(m))
		}
	}
	freed &^= s.free
	s.free |= freed
	s.nfree += bits.OnesCount64(freed)
	vm.threads, vm.cores = 0, 0
	s.vms = append(s.vms[:i], s.vms[i+1:]...)
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
	return a.cores&b.cores != 0
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
		if vm != observer && observer.cores&vm.cores != 0 {
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
