package cluster

import (
	"errors"
	"fmt"
	"testing"

	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// schedulerTable enumerates every Scheduler implementation. Each entry
// builds a fresh value per run (Affinity, PSSF, and Bandit accumulate
// state), and optionally prepares a VM before placement (so Affinity has
// labels and wants to steer by).
var schedulerTable = []struct {
	name    string
	mk      func() Scheduler
	prepare func(sched Scheduler, vm *sim.VM, i int)
}{
	{"least-loaded", func() Scheduler { return LeastLoaded{} }, nil},
	{"quasar", func() Scheduler { return Quasar{} }, nil},
	{"affinity", func() Scheduler { return NewAffinity(LeastLoaded{}) },
		func(sched Scheduler, vm *sim.VM, i int) {
			// Alternate labelled services and placements wanting them, so
			// the affinity path (not just the fallback) is exercised.
			aff := sched.(*Affinity)
			if i%2 == 0 {
				aff.Label(vm.ID, fmt.Sprintf("svc=%d", i%4))
			} else {
				aff.Want(vm.ID, fmt.Sprintf("svc=%d", i%4))
			}
		}},
	{"pssf", func() Scheduler { return NewPSSF(4) }, nil},
	{"bandit-eps", func() Scheduler { return NewBandit(EpsilonGreedy, stats.NewRNG(7)) },
		func(sched Scheduler, vm *sim.VM, i int) {
			// Feed the reward stream so exploitation has estimates to rank.
			sched.(*Bandit).Observe(i%8, float64(i%10)/10)
		}},
	{"bandit-ucb", func() Scheduler { return NewBandit(UCB, stats.NewRNG(7)) },
		func(sched Scheduler, vm *sim.VM, i int) {
			sched.(*Bandit).Observe(i%8, float64(i%10)/10)
		}},
}

// checkNoOvercommit asserts no server allocated more vCPUs than it has.
func checkNoOvercommit(t *testing.T, c *Cluster) {
	t.Helper()
	for _, s := range c.Servers {
		if s.FreeVCPUs() < 0 {
			t.Fatalf("server %s overcommitted: FreeVCPUs = %d", s.Name(), s.FreeVCPUs())
		}
	}
}

// checkHostOfConsistent asserts that for every id in placed, HostOf returns
// the server that actually holds the VM (Lookup agrees), and that the
// cluster-wide VM population is exactly the placed set.
func checkHostOfConsistent(t *testing.T, c *Cluster, placed map[string]*sim.Server) {
	t.Helper()
	for id, want := range placed {
		got := c.HostOf(id)
		if got != want {
			t.Fatalf("HostOf(%q) = %v, want the server Place returned (%v)", id, got, want)
		}
		if got.Lookup(id) == nil {
			t.Fatalf("HostOf(%q) returned a server that does not hold the VM", id)
		}
	}
	total := 0
	for _, s := range c.Servers {
		total += s.VMCount()
	}
	if total != len(placed) {
		t.Fatalf("cluster holds %d VMs, want %d placed", total, len(placed))
	}
}

// TestSchedulerInvariants drives every scheduler through the same
// placement storm — more demand than the cluster has capacity — and checks
// the invariants every policy must uphold regardless of how it picks:
// capacity is never overcommitted, a successful Place is always visible
// and consistent through HostOf, failures leave no trace, and a removed VM
// can be re-placed (round-trip) without corrupting the index.
func TestSchedulerInvariants(t *testing.T) {
	for _, tc := range schedulerTable {
		t.Run(tc.name, func(t *testing.T) {
			sched := tc.mk()
			// 6 servers × 8 vCPUs = 48 vCPUs; the storm asks for ~72.
			c := New(6, sim.ServerConfig{Cores: 4, ThreadsPerCore: 2}, sched)
			rng := stats.NewRNG(11)
			specs := workload.VictimSpecs(3, 8)

			placed := map[string]*sim.Server{}
			var order []string
			fails := 0
			for i := 0; i < 36; i++ {
				vm := mkVM(fmt.Sprintf("vm-%d", i), 1+i%3, specs[i%len(specs)], rng.Uint64())
				if tc.prepare != nil {
					tc.prepare(sched, vm, i)
				}
				host, err := c.Place(vm, sim.Tick(i))
				if err != nil {
					if !errors.Is(err, ErrClusterFull) {
						t.Fatalf("Place(%q): unexpected error %v", vm.ID, err)
					}
					fails++
					if c.HostOf(vm.ID) != nil {
						t.Fatalf("failed Place(%q) left the VM visible via HostOf", vm.ID)
					}
					continue
				}
				placed[vm.ID] = host
				order = append(order, vm.ID)
				checkNoOvercommit(t, c)
			}
			if fails == 0 {
				t.Fatal("storm never filled the cluster; invariant checks under pressure did not run")
			}
			checkHostOfConsistent(t, c, placed)

			// Remove every other placed VM, then re-place it: the freed
			// capacity must accept it again and the index must follow.
			for i, id := range order {
				if i%2 != 0 {
					continue
				}
				host := placed[id]
				vm := host.Lookup(id)
				if got := c.Remove(id); got != host {
					t.Fatalf("Remove(%q) = %v, want its host %v", id, got, host)
				}
				if c.HostOf(id) != nil {
					t.Fatalf("HostOf(%q) non-nil after Remove", id)
				}
				delete(placed, id)
				newHost, err := c.Place(vm, sim.Tick(100+i))
				if err != nil {
					t.Fatalf("re-Place(%q) after Remove failed: %v", id, err)
				}
				placed[id] = newHost
				checkNoOvercommit(t, c)
			}
			checkHostOfConsistent(t, c, placed)
		})
	}
}

// TestSchedulerPickBounds checks Pick's contract directly: the returned
// index is in range and feasible, and -1 is returned exactly when no
// server can host the VM.
func TestSchedulerPickBounds(t *testing.T) {
	for _, tc := range schedulerTable {
		t.Run(tc.name, func(t *testing.T) {
			sched := tc.mk()
			c := New(3, sim.ServerConfig{Cores: 2, ThreadsPerCore: 2}, sched)
			spec := workload.VictimSpecs(5, 1)[0]

			vm := mkVM("fits", 2, spec, 1)
			if tc.prepare != nil {
				tc.prepare(sched, vm, 0)
			}
			i := sched.Pick(c, vm, 0)
			if i < 0 || i >= len(c.Servers) {
				t.Fatalf("Pick = %d out of range for a feasible VM", i)
			}
			if c.Servers[i].FreeVCPUs() < vm.VCPUs {
				t.Fatalf("Pick chose server %d without capacity", i)
			}

			huge := mkVM("huge", 99, spec, 2)
			if tc.prepare != nil {
				tc.prepare(sched, huge, 1)
			}
			if i := sched.Pick(c, huge, 0); i != -1 {
				t.Fatalf("Pick = %d for an infeasible VM, want -1", i)
			}
		})
	}
}
