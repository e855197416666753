package cluster

import (
	"fmt"
	"testing"

	"bolt/internal/sim"
	"bolt/internal/workload"
)

// refAffinityPick is Affinity.Pick as it stood when it scanned the whole
// label map once per feasible host (refHostsLabel), kept as the reference.
func refAffinityPick(a *Affinity, servers []*sim.Server, vm *sim.VM, t sim.Tick) int {
	if want := a.wants[vm.ID]; want != "" {
		best, bestFree := -1, 0
		for i, s := range servers {
			free := s.FreeVCPUs()
			if free < vm.VCPUs || free <= bestFree {
				continue
			}
			if refHostsLabel(a, s, want) {
				best, bestFree = i, free
			}
		}
		if best >= 0 {
			return best
		}
	}
	return a.Fallback.Pick(servers, vm, t)
}

// refHostsLabel reports whether any VM on s carries the label.
func refHostsLabel(a *Affinity, s *sim.Server, label string) bool {
	for id, l := range a.labels {
		if l == label && s.Lookup(id) != nil {
			return true
		}
	}
	return false
}

// TestAffinityPickMatchesPerHostScan pins Pick, which reads the label map
// once per pick, to the per-host scan it replaced: several labelled VMs,
// a labelled VM since removed, labels other than the one requested, free
// vCPU ties, and no feasible labelled host. Each case is also checked
// against the host it must pick, and picked twice, so the reused id buffer
// starts the second pick holding the first's ids.
func TestAffinityPickMatchesPerHostScan(t *testing.T) {
	type tenant struct {
		host, vcpus int
		id, label   string
	}
	cases := []struct {
		name    string
		tenants []tenant
		removed []string // placed, labelled, then removed from its host
		want    string   // the incoming VM's request; "" for none
		vcpus   int
		pick    int
	}{
		{"several labelled VMs, most free wins",
			[]tenant{{0, 2, "a", "db"}, {1, 8, "b", "db"}, {2, 4, "c", "db"}, {3, 1, "x", "web"}},
			nil, "db", 1, 0},
		{"free tie goes to the lower index",
			[]tenant{{0, 9, "fill", ""}, {1, 4, "a", "db"}, {2, 4, "b", "db"}},
			nil, "db", 2, 1},
		{"labelled VM removed",
			[]tenant{{0, 8, "a", "db"}, {2, 1, "gone", "db"}},
			[]string{"gone"}, "db", 1, 0},
		{"only removed carrier: fallback",
			[]tenant{{0, 8, "a", "web"}, {1, 2, "gone", "db"}},
			[]string{"gone"}, "db", 1, 1},
		{"no feasible labelled host: fallback",
			[]tenant{{0, 14, "a", "db"}, {1, 13, "b", "db"}, {2, 6, "c", ""}},
			nil, "db", 4, 3},
		{"label nobody carries: fallback",
			[]tenant{{0, 3, "a", "db"}, {3, 1, "b", "db"}},
			nil, "cache", 1, 1},
		{"no request: fallback",
			[]tenant{{0, 3, "a", "db"}, {1, 2, "b", "db"}},
			nil, "", 1, 2},
	}
	spec := workload.VictimSpecs(1, 1)[0]
	for _, tc := range cases {
		aff := NewAffinity(LeastLoaded{})
		c := New(4, sim.ServerConfig{}, aff)
		for k, tn := range tc.tenants {
			if tn.label != "" {
				aff.Label(tn.id, tn.label)
			}
			if err := c.Servers[tn.host].Place(mkVM(tn.id, tn.vcpus, spec, uint64(k))); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		for _, id := range tc.removed {
			c.Remove(id)
			if c.HostOf(id) != nil {
				t.Fatalf("%s: %s still placed", tc.name, id)
			}
		}
		vm := mkVM("incoming", tc.vcpus, spec, 99)
		if tc.want != "" {
			aff.Want(vm.ID, tc.want)
		}
		for round := 0; round < 2; round++ {
			name := fmt.Sprintf("%s (pick %d)", tc.name, round)
			got, ref := aff.Pick(c.Servers, vm, 0), refAffinityPick(aff, c.Servers, vm, 0)
			if got != ref {
				t.Fatalf("%s: Pick = %d, per-host scan %d", name, got, ref)
			}
			if got != tc.pick {
				t.Fatalf("%s: Pick = %d, want %d", name, got, tc.pick)
			}
		}
	}
}
