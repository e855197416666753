package cluster

import (
	"fmt"
	"testing"
	"testing/quick"

	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// TestPropPlacementConservesVMs: every successfully placed VM stays
// findable, and after arbitrary migrations the population is unchanged.
func TestPropPlacementConservesVMs(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		c := New(3+rng.Intn(4), sim.ServerConfig{}, LeastLoaded{})
		placed := map[string]bool{}
		for i := 0; i < 12; i++ {
			spec := workload.VictimSpecs(seed, 12)[i]
			vm := mkVM(fmt.Sprintf("vm-%d", i), 1+rng.Intn(6), spec, rng.Uint64())
			if _, err := c.Place(vm, 0); err == nil {
				placed[vm.ID] = true
			}
		}
		// Random migrations.
		for id := range placed {
			if rng.Bool(0.5) {
				c.Migrate(id, 0) // failure is fine; the VM must survive
			}
		}
		for id := range placed {
			if c.HostOf(id) == nil {
				return false
			}
		}
		// No VM may appear on two servers.
		count := map[string]int{}
		for _, s := range c.Servers {
			for _, vm := range s.VMs() {
				count[vm.ID]++
			}
		}
		for id, n := range count {
			if n != 1 {
				t.Logf("VM %s appears %d times", id, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateRollbackOnFullDestination(t *testing.T) {
	// Destination exists but is too small for the VM: migration must fail
	// and the VM must remain on its source, intact.
	c := &Cluster{Sched: LeastLoaded{}}
	big := sim.NewServer("big", sim.ServerConfig{Cores: 8, ThreadsPerCore: 2})
	small := sim.NewServer("small", sim.ServerConfig{Cores: 1, ThreadsPerCore: 2})
	c.Servers = []*sim.Server{big, small}

	spec := workload.VictimSpecs(1, 1)[0]
	vm := mkVM("wide", 6, spec, 1)
	if err := big.Place(vm); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate("wide", 0); err == nil {
		t.Fatal("migration into a too-small cluster should fail")
	}
	if c.HostOf("wide") != big {
		t.Fatal("failed migration must leave the VM on its source")
	}
}

func TestMigrateRollbackKeepsIndexConsistent(t *testing.T) {
	// The harder edge: the destination passes the capacity check but
	// rejects the VM at placement time (here: it already carries a VM with
	// the same id, placed directly on the server the way campaign
	// background tenants are). Migrate must roll the VM back onto its
	// source with the id→host index still answering correctly.
	c := &Cluster{Sched: LeastLoaded{}}
	src := sim.NewServer("src", sim.ServerConfig{Cores: 2, ThreadsPerCore: 2})
	dst := sim.NewServer("dst", sim.ServerConfig{Cores: 8, ThreadsPerCore: 2})
	c.Servers = []*sim.Server{src, dst}

	spec := workload.VictimSpecs(1, 1)[0]
	if err := dst.Place(mkVM("victim", 1, spec, 7)); err != nil {
		t.Fatal(err)
	}
	vm := mkVM("victim", 2, spec, 1)
	if err := src.Place(vm); err != nil {
		t.Fatal(err)
	}
	c.index()["victim"] = src // the cluster-managed instance lives on src

	if _, err := c.Migrate("victim", 0); err == nil {
		t.Fatal("migration into a rejecting destination should fail")
	}
	if c.HostOf("victim") != src {
		t.Fatal("rollback must leave the index pointing at the source")
	}
	if src.Lookup("victim") == nil {
		t.Fatal("rollback must leave the VM on its source")
	}
	if got := src.Lookup("victim"); got != vm {
		t.Fatalf("source holds %v, want the original VM", got)
	}
	// The cluster stays fully usable: the VM can still be removed and
	// re-placed through the normal path (once the decoy id is gone).
	if got := c.Remove("victim"); got != src {
		t.Fatalf("Remove after failed migration returned %v, want src", got)
	}
	dst.Remove("victim")
	if _, err := c.Place(vm, 0); err != nil {
		t.Fatalf("re-Place after failed migration: %v", err)
	}
}

func TestMigrationPreservesSlotsShape(t *testing.T) {
	c := New(2, sim.ServerConfig{}, LeastLoaded{})
	spec := workload.VictimSpecs(2, 1)[0]
	vm := mkVM("x", 5, spec, 1)
	if _, err := c.Place(vm, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate("x", 0); err != nil {
		t.Fatal(err)
	}
	if got := len(vm.Slots()); got != 5 {
		t.Fatalf("VM has %d slots after migration, want 5", got)
	}
}

func TestQuasarFallsBackWhenAllOverlap(t *testing.T) {
	// Every host carries the same workload; Quasar must still place (it
	// minimises, not vetoes).
	c := New(2, sim.ServerConfig{}, Quasar{})
	spec := workload.Spark(stats.NewRNG(1), 0)
	for i, s := range c.Servers {
		if err := s.Place(mkVM(fmt.Sprintf("r%d", i), 4, spec, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Place(mkVM("incoming", 4, spec, 9), 0); err != nil {
		t.Fatalf("Quasar should place despite universal overlap: %v", err)
	}
}

func TestSchedulersRejectOversizedVM(t *testing.T) {
	for _, sched := range []Scheduler{LeastLoaded{}, Quasar{}} {
		c := New(2, sim.ServerConfig{Cores: 2, ThreadsPerCore: 2}, sched)
		spec := workload.VictimSpecs(3, 1)[0]
		if _, err := c.Place(mkVM("huge", 9, spec, 1), 0); err == nil {
			t.Fatalf("%s placed a VM larger than any host", sched.Name())
		}
	}
}
