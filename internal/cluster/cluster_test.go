package cluster

import (
	"errors"
	"fmt"
	"testing"

	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

func mkVM(id string, vcpus int, spec workload.Spec, seed uint64) *sim.VM {
	app := workload.NewApp(spec, workload.Constant{Level: 1}, seed)
	return &sim.VM{ID: id, VCPUs: vcpus, App: app}
}

func TestNewCluster(t *testing.T) {
	c := New(5, sim.ServerConfig{}, LeastLoaded{})
	if len(c.Servers) != 5 {
		t.Fatalf("got %d servers, want 5", len(c.Servers))
	}
	names := map[string]bool{}
	for _, s := range c.Servers {
		names[s.Name()] = true
	}
	if len(names) != 5 {
		t.Fatal("server names not unique")
	}
}

// TestNewServersFromOneSlab checks New's names against fmt's "server-%02d"
// across the two-, three- and four-digit boundaries, and that the servers
// carved from one slab are independent: filling every hyperthread of one
// with 1-vCPU VMs, then emptying it, leaves its neighbours' VMs in place.
func TestNewServersFromOneSlab(t *testing.T) {
	c := New(1001, sim.ServerConfig{}, LeastLoaded{})
	for i, s := range c.Servers {
		if want := fmt.Sprintf("server-%02d", i); s.Name() != want {
			t.Fatalf("server %d is named %q, want %q", i, s.Name(), want)
		}
	}
	spec := workload.VictimSpecs(1, 1)[0]
	neighbours := map[int]*sim.VM{}
	for _, j := range []int{1, 2, 499, 501, 999} {
		neighbours[j] = mkVM(fmt.Sprintf("n-%d", j), 1, spec, 0)
		if err := c.Servers[j].Place(neighbours[j]); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 500, 1000} {
		s := c.Servers[i]
		for k := 0; k < s.TotalVCPUs(); k++ {
			if err := s.Place(mkVM(fmt.Sprintf("vm-%d-%d", i, k), 1, spec, uint64(k))); err != nil {
				t.Fatal(err)
			}
		}
		for j, vm := range neighbours {
			if vms := c.Servers[j].VMs(); len(vms) != 1 || vms[0] != vm {
				t.Fatalf("after filling server %d, server %d holds %v, want only %s", i, j, vms, vm.ID)
			}
		}
		for k := 0; k < s.TotalVCPUs(); k++ {
			if !s.Remove(fmt.Sprintf("vm-%d-%d", i, k)) {
				t.Fatalf("server %d lost vm-%d-%d", i, i, k)
			}
		}
	}
}

func TestLeastLoadedSpreads(t *testing.T) {
	c := New(3, sim.ServerConfig{}, LeastLoaded{})
	rng := stats.NewRNG(1)
	specs := workload.VictimSpecs(1, 6)
	for i, spec := range specs {
		if _, err := c.Place(mkVM(spec.Label+string(rune('a'+i)), 4, spec, rng.Uint64()), 0); err != nil {
			t.Fatal(err)
		}
	}
	// 6 × 4 vCPUs over 3 × 16 vCPUs: least-loaded spreads 2 VMs per server.
	for _, s := range c.Servers {
		if got := len(s.VMs()); got != 2 {
			t.Fatalf("server %s has %d VMs, want 2", s.Name(), got)
		}
	}
}

func TestPlaceClusterFull(t *testing.T) {
	c := New(1, sim.ServerConfig{Cores: 2, ThreadsPerCore: 2}, LeastLoaded{})
	spec := workload.VictimSpecs(1, 1)[0]
	if _, err := c.Place(mkVM("a", 4, spec, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(mkVM("b", 1, spec, 2), 0); !errors.Is(err, ErrClusterFull) {
		t.Fatalf("want ErrClusterFull, got %v", err)
	}
}

func TestHostOf(t *testing.T) {
	c := New(2, sim.ServerConfig{}, LeastLoaded{})
	spec := workload.VictimSpecs(1, 1)[0]
	s, err := c.Place(mkVM("x", 2, spec, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.HostOf("x") != s {
		t.Fatal("HostOf returned wrong server")
	}
	if c.HostOf("nope") != nil {
		t.Fatal("HostOf for unknown VM should be nil")
	}
}

func TestMigrateMovesVM(t *testing.T) {
	c := New(2, sim.ServerConfig{}, LeastLoaded{})
	spec := workload.VictimSpecs(1, 1)[0]
	src, err := c.Place(mkVM("x", 2, spec, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.Migrate("x", 0)
	if err != nil {
		t.Fatal(err)
	}
	if dst == src {
		t.Fatal("migration must change host")
	}
	if c.HostOf("x") != dst {
		t.Fatal("VM not on destination after migration")
	}
	if src.Lookup("x") != nil {
		t.Fatal("VM still on source after migration")
	}
}

func TestMigrateUnknownVM(t *testing.T) {
	c := New(2, sim.ServerConfig{}, LeastLoaded{})
	if _, err := c.Migrate("ghost", 0); err == nil {
		t.Fatal("migrating an unknown VM should fail")
	}
}

func TestMigrateNoDestination(t *testing.T) {
	c := New(1, sim.ServerConfig{}, LeastLoaded{})
	spec := workload.VictimSpecs(1, 1)[0]
	if _, err := c.Place(mkVM("x", 2, spec, 1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Migrate("x", 0); !errors.Is(err, ErrClusterFull) {
		t.Fatalf("want ErrClusterFull, got %v", err)
	}
	if c.HostOf("x") == nil {
		t.Fatal("failed migration must not lose the VM")
	}
}

func TestQuasarAvoidsOverlap(t *testing.T) {
	c := New(2, sim.ServerConfig{}, Quasar{})
	// Server 0 gets a memory-bound app; an incoming memory-bound app should
	// land on server 1 even though both have space.
	memSpec := workload.Spark(stats.NewRNG(1), 0) // memory heavy
	if err := c.Servers[0].Place(mkVM("resident", 4, memSpec, 1)); err != nil {
		t.Fatal(err)
	}
	incoming := workload.Spark(stats.NewRNG(2), 1)
	s, err := c.Place(mkVM("incoming", 4, incoming, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s != c.Servers[1] {
		t.Fatal("Quasar should avoid co-scheduling overlapping apps")
	}
}

func TestQuasarCoSchedulesDissimilar(t *testing.T) {
	c := New(2, sim.ServerConfig{}, Quasar{})
	// Server 0 hosts a disk-bound job, server 1 a memory-bound one. An
	// incoming memory-bound job overlaps far less with the disk-bound host.
	disk := workload.Hadoop(stats.NewRNG(1), 2) // sort: disk-bound
	if err := c.Servers[0].Place(mkVM("disk", 4, disk, 1)); err != nil {
		t.Fatal(err)
	}
	mem := workload.Spark(stats.NewRNG(2), 0) // kmeans: memory-bound
	if err := c.Servers[1].Place(mkVM("mem", 4, mem, 2)); err != nil {
		t.Fatal(err)
	}
	incoming := workload.Spark(stats.NewRNG(3), 1) // pagerank: memory-bound
	s, err := c.Place(mkVM("incoming", 4, incoming, 3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s != c.Servers[0] {
		t.Fatalf("memory-bound app should co-locate with the disk-bound job, got %s", s.Name())
	}
}

func TestMigrationPolicy(t *testing.T) {
	p := DefaultMigrationPolicy()
	if p.Threshold != 70 || p.OutageTicks != 80 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
	s := sim.NewServer("s0", sim.ServerConfig{})
	var burn sim.Vector
	burn.Set(sim.CPU, 80)
	if err := s.Place(&sim.VM{ID: "hot", VCPUs: 4, App: constApp{burn}}); err != nil {
		t.Fatal(err)
	}
	if !p.ShouldMigrate(s, 0) {
		t.Fatal("80% CPU should trip the 70% threshold")
	}
}

type constApp struct{ d sim.Vector }

func (c constApp) Demand(sim.Tick) sim.Vector { return c.d }
func (c constApp) DemandInto(_ sim.Tick, out *sim.Vector, _ sim.ResourceSet) {
	*out = c.d
}
func (c constApp) Sensitivity() sim.Vector { return sim.Vector{} }
