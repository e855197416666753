package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"bolt/internal/sim"
	"bolt/internal/workload"
)

// TestClusterRemove pins the Remove contract: it resolves the host,
// deletes the VM, and leaves HostOf empty; unknown ids are a nil no-op.
func TestClusterRemove(t *testing.T) {
	c := New(2, sim.ServerConfig{}, LeastLoaded{})
	spec := workload.VictimSpecs(1, 1)[0]
	placed, err := c.Place(mkVM("x", 2, spec, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Remove("x"); got != placed {
		t.Fatalf("Remove returned %v, want the hosting server", got)
	}
	if placed.Lookup("x") != nil {
		t.Fatal("VM still on host after Remove")
	}
	if c.HostOf("x") != nil {
		t.Fatal("HostOf should be nil after Remove")
	}
	if c.Remove("ghost") != nil {
		t.Fatal("removing an unknown VM should return nil")
	}
}

// TestReplacementAfterRemoval drives the full placement cycle on a tiny
// cluster: fill to ErrClusterFull, remove, and place again into the freed
// capacity.
func TestReplacementAfterRemoval(t *testing.T) {
	c := New(2, sim.ServerConfig{Cores: 2, ThreadsPerCore: 2}, LeastLoaded{})
	spec := workload.VictimSpecs(1, 1)[0]
	for i := 0; i < 2; i++ {
		if _, err := c.Place(mkVM(fmt.Sprintf("big-%d", i), 4, spec, uint64(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Place(mkVM("extra", 1, spec, 9), 0); !errors.Is(err, ErrClusterFull) {
		t.Fatalf("full cluster: want ErrClusterFull, got %v", err)
	}
	freed := c.Remove("big-0")
	if freed == nil {
		t.Fatal("Remove failed to find big-0")
	}
	s, err := c.Place(mkVM("extra", 1, spec, 9), 0)
	if err != nil {
		t.Fatalf("re-placement after removal failed: %v", err)
	}
	if s != freed {
		t.Fatalf("re-placement landed on %s, want the freed server %s", s.Name(), freed.Name())
	}
	if c.HostOf("extra") != s {
		t.Fatal("index out of date after re-placement")
	}
}

// TestMigrateClusterFullMultiServer pins the Migrate edge where other
// servers exist but none has the capacity: ErrClusterFull, the VM stays
// put, and HostOf still resolves it.
func TestMigrateClusterFullMultiServer(t *testing.T) {
	c := New(3, sim.ServerConfig{Cores: 2, ThreadsPerCore: 2}, LeastLoaded{})
	spec := workload.VictimSpecs(1, 1)[0]
	// Fill servers 1 and 2 so neither can take the 3-vCPU VM from server 0.
	if err := c.Servers[0].Place(mkVM("mover", 3, spec, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if err := c.Servers[i].Place(mkVM(fmt.Sprintf("blk-%d", i), 2, spec, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Migrate("mover", 0); !errors.Is(err, ErrClusterFull) {
		t.Fatalf("want ErrClusterFull, got %v", err)
	}
	if c.HostOf("mover") != c.Servers[0] {
		t.Fatal("failed migration must leave the VM on its source host")
	}
}

// TestHostOfRepairsStaleIndex mutates servers directly — the pattern the
// attack experiments use — and checks that HostOf still answers correctly
// when its index entry is stale: the entry is verified, never trusted, and
// the read-only scan finds the VM's real host.
func TestHostOfRepairsStaleIndex(t *testing.T) {
	c := New(2, sim.ServerConfig{}, LeastLoaded{})
	spec := workload.VictimSpecs(1, 1)[0]
	vm := mkVM("x", 2, spec, 1)
	src, err := c.Place(vm, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Move the VM behind the cluster's back.
	var dst *sim.Server
	for _, s := range c.Servers {
		if s != src {
			dst = s
		}
	}
	src.Remove("x")
	if err := dst.Place(vm); err != nil {
		t.Fatal(err)
	}
	if got := c.HostOf("x"); got != dst {
		t.Fatalf("HostOf returned %v after direct move, want the new host", got)
	}
	// Mutate again and confirm the scan still wins over the stale entry.
	dst.Remove("x")
	if c.HostOf("x") != nil {
		t.Fatal("HostOf should be nil after the VM is gone everywhere")
	}
}

// TestHostOfDirectPlacementNoIndex covers VMs that never went through
// Place at all (seeded directly on servers): the scan must find them, every
// time.
func TestHostOfDirectPlacementNoIndex(t *testing.T) {
	c := New(3, sim.ServerConfig{}, LeastLoaded{})
	spec := workload.VictimSpecs(1, 1)[0]
	if err := c.Servers[2].Place(mkVM("direct", 2, spec, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := c.HostOf("direct"); got != c.Servers[2] {
			t.Fatalf("HostOf returned %v, want servers[2]", got)
		}
	}
}

// TestHostOfConcurrentReaders hammers HostOf from many goroutines on an
// indexed VM, a directly placed VM, a VM moved behind the cluster's back, and
// an unknown id. Fan-out bodies resolve hosts this way, so HostOf must not
// write: under -race this fails on any lookup that touches the index.
func TestHostOfConcurrentReaders(t *testing.T) {
	c := New(4, sim.ServerConfig{}, LeastLoaded{})
	spec := workload.VictimSpecs(1, 1)[0]
	indexed, err := c.Place(mkVM("indexed", 2, spec, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Servers[3].Place(mkVM("direct", 2, spec, 2)); err != nil {
		t.Fatal(err)
	}
	moved := mkVM("moved", 2, spec, 3)
	src, err := c.Place(moved, 0)
	if err != nil {
		t.Fatal(err)
	}
	src.Remove("moved")
	if err := c.Servers[3].Place(moved); err != nil {
		t.Fatal(err)
	}
	want := map[string]*sim.Server{
		"indexed": indexed, "direct": c.Servers[3], "moved": c.Servers[3], "ghost": nil,
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for id, host := range want {
					if got := c.HostOf(id); got != host {
						t.Errorf("HostOf(%q) = %v, want %v", id, got, host)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestAffinitySteersToLabelledHost is the Repttack mechanic: a VM that
// wants a label lands with the VM carrying it, not on the emptiest host.
func TestAffinitySteersToLabelledHost(t *testing.T) {
	aff := NewAffinity(LeastLoaded{})
	c := New(4, sim.ServerConfig{}, aff)
	spec := workload.VictimSpecs(1, 1)[0]

	// The victim sits on a busier host than the rest of the fleet.
	if err := c.Servers[1].Place(mkVM("busy", 8, spec, 1)); err != nil {
		t.Fatal(err)
	}
	aff.Label("victim", "svc=db")
	if err := c.Servers[1].Place(mkVM("victim", 4, spec, 2)); err != nil {
		t.Fatal(err)
	}

	probe := mkVM("probe", 1, spec, 3)
	aff.Want("probe", "svc=db")
	host, err := c.Place(probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if host != c.Servers[1] {
		t.Fatalf("affinity placed the probe on %s, want the victim's host", host.Name())
	}
}

// TestAffinityFallsBack covers both fallback paths: a VM with no request
// behaves like the fallback scheduler, and a request nothing satisfies
// (label absent, or the labelled host is full) degrades to the fallback
// instead of failing.
func TestAffinityFallsBack(t *testing.T) {
	aff := NewAffinity(LeastLoaded{})
	c := New(2, sim.ServerConfig{}, aff)
	spec := workload.VictimSpecs(1, 1)[0]

	// No request: pure least-loaded behaviour.
	if err := c.Servers[0].Place(mkVM("filler", 4, spec, 1)); err != nil {
		t.Fatal(err)
	}
	host, err := c.Place(mkVM("plain", 2, spec, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if host != c.Servers[1] {
		t.Fatal("VM without affinity request should follow the fallback policy")
	}

	// Request for a label nobody carries: fallback.
	ghost := mkVM("ghost-want", 1, spec, 3)
	aff.Want("ghost-want", "svc=nowhere")
	if _, err := c.Place(ghost, 0); err != nil {
		t.Fatalf("unsatisfiable affinity should fall back, got %v", err)
	}

	// Labelled host too full to take the prober: fallback, not failure.
	aff.Label("victim", "svc=db")
	if err := c.Servers[0].Place(mkVM("victim", 10, spec, 4)); err != nil {
		t.Fatal(err)
	}
	big := mkVM("big-probe", 8, spec, 5)
	aff.Want("big-probe", "svc=db")
	host, err = c.Place(big, 0)
	if err != nil {
		t.Fatal(err)
	}
	if host != c.Servers[1] {
		t.Fatal("full labelled host should fall back to the least-loaded feasible host")
	}
}

// BenchmarkHostOf measures the indexed lookup against a fleet-sized
// cluster — the call fleet experiments make per ground-truth check.
func BenchmarkHostOf(b *testing.B) {
	c := New(1024, sim.ServerConfig{}, LeastLoaded{})
	spec := workload.VictimSpecs(1, 1)[0]
	if _, err := c.Place(mkVM("needle", 2, spec, 1), 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.HostOf("needle") == nil {
			b.Fatal("lost the needle")
		}
	}
}
