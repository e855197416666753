package cluster

import (
	"slices"
	"testing"

	"bolt/internal/sim"
	"bolt/internal/workload"
)

// refAffinityPick is Affinity.Pick as a per-host scan over the test's own
// id → labels record (refHostsLabel), kept as the reference. It shares
// with Pick only the request (a.wants), the fallback and FreeVCPUs; it
// reads a host's VMs through VMs() rather than resolving the label's
// carriers through HostOf and IndexOf.
func refAffinityPick(a *Affinity, labels map[string][]string, c *Cluster, vm *sim.VM, t sim.Tick) int {
	if want := a.wants[vm.ID]; want != "" {
		best, bestFree := -1, 0
		for i, s := range c.Servers {
			free := s.FreeVCPUs()
			if free < vm.VCPUs || free <= bestFree {
				continue
			}
			if refHostsLabel(labels, s, want) {
				best, bestFree = i, free
			}
		}
		if best >= 0 {
			return best
		}
	}
	return a.Fallback.Pick(c, vm, t)
}

// refHostsLabel reports whether any VM on s carries the label.
func refHostsLabel(labels map[string][]string, s *sim.Server, label string) bool {
	for _, vm := range s.VMs() {
		if slices.Contains(labels[vm.ID], label) {
			return true
		}
	}
	return false
}

// TestAffinityPickMatchesPerHostScan pins Pick, which reads the label's
// carriers from its index, to a per-host scan: several labelled VMs, a
// labelled VM since removed, labels other than the one requested, a VM
// carrying two labels, free vCPU ties, and no feasible labelled host. Each
// case is also checked against the host it must pick.
func TestAffinityPickMatchesPerHostScan(t *testing.T) {
	type tenant struct {
		host, vcpus int
		id, label   string
	}
	cases := []struct {
		name    string
		tenants []tenant
		removed []string    // placed, labelled, then removed from its host
		relabel [][2]string // (id, label): a further label on a placed VM
		want    string      // the incoming VM's request; "" for none
		vcpus   int
		pick    int
	}{
		{"several labelled VMs, most free wins",
			[]tenant{{0, 2, "a", "db"}, {1, 8, "b", "db"}, {2, 4, "c", "db"}, {3, 1, "x", "web"}},
			nil, nil, "db", 1, 0},
		{"free tie goes to the lower index",
			[]tenant{{0, 9, "fill", ""}, {1, 4, "a", "db"}, {2, 4, "b", "db"}},
			nil, nil, "db", 2, 1},
		{"labelled VM removed",
			[]tenant{{0, 8, "a", "db"}, {2, 1, "gone", "db"}},
			[]string{"gone"}, nil, "db", 1, 0},
		{"only removed carrier: fallback",
			[]tenant{{0, 8, "a", "web"}, {1, 2, "gone", "db"}},
			[]string{"gone"}, nil, "db", 1, 1},
		{"no feasible labelled host: fallback",
			[]tenant{{0, 14, "a", "db"}, {1, 13, "b", "db"}, {2, 6, "c", ""}},
			nil, nil, "db", 4, 3},
		{"label nobody carries: fallback",
			[]tenant{{0, 3, "a", "db"}, {3, 1, "b", "db"}},
			nil, nil, "cache", 1, 1},
		{"no request: fallback",
			[]tenant{{0, 3, "a", "db"}, {1, 2, "b", "db"}},
			nil, nil, "", 1, 2},
		{"VM labelled db then web carries db",
			[]tenant{{0, 8, "a", "db"}, {1, 2, "b", "cache"}},
			nil, [][2]string{{"a", "web"}}, "db", 1, 0},
		{"VM labelled db then web carries web",
			[]tenant{{0, 8, "a", "db"}, {1, 2, "b", "cache"}},
			nil, [][2]string{{"a", "web"}}, "web", 1, 0},
	}
	spec := workload.VictimSpecs(1, 1)[0]
	for _, tc := range cases {
		aff := NewAffinity(LeastLoaded{})
		c := New(4, sim.ServerConfig{}, aff)
		labels := map[string][]string{}
		label := func(id, l string) {
			aff.Label(id, l)
			labels[id] = append(labels[id], l)
		}
		for k, tn := range tc.tenants {
			if tn.label != "" {
				label(tn.id, tn.label)
			}
			if err := c.Servers[tn.host].Place(mkVM(tn.id, tn.vcpus, spec, uint64(k))); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		for _, r := range tc.relabel {
			label(r[0], r[1])
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
		got, ref := aff.Pick(c, vm, 0), refAffinityPick(aff, labels, c, vm, 0)
		if got != ref {
			t.Fatalf("%s: Pick = %d, per-host scan %d", tc.name, got, ref)
		}
		if got != tc.pick {
			t.Fatalf("%s: Pick = %d, want %d", tc.name, got, tc.pick)
		}
	}
}

// TestAffinityPickResolvesCarriersThroughHostOf covers the ways HostOf
// finds a carrier: through the cluster's index (placed by Place), by its
// scan after the carrier moved behind the cluster's back (the index entry
// fails its check), and not at all once the carrier is gone. Each pick is
// checked against the per-host scan and the host it must pick.
func TestAffinityPickResolvesCarriersThroughHostOf(t *testing.T) {
	aff := NewAffinity(LeastLoaded{})
	c := New(4, sim.ServerConfig{}, aff)
	spec := workload.VictimSpecs(1, 1)[0]
	labels := map[string][]string{"v1": {"db"}, "v2": {"db"}}
	aff.Label("v1", "db")
	aff.Label("v2", "db")
	v1, v2 := mkVM("v1", 4, spec, 1), mkVM("v2", 2, spec, 2)
	if _, err := c.Place(v1, 0); err != nil { // least-loaded: server 0
		t.Fatal(err)
	}
	if _, err := c.Place(v2, 0); err != nil { // server 1
		t.Fatal(err)
	}
	pick := func(step string, want int) {
		t.Helper()
		vm := mkVM("probe-"+step, 1, spec, 3)
		aff.Want(vm.ID, "db")
		if got, ref := aff.Pick(c, vm, 0), refAffinityPick(aff, labels, c, vm, 0); got != ref || got != want {
			t.Fatalf("%s: Pick = %d, per-host scan %d, want %d", step, got, ref, want)
		}
	}
	pick("indexed", 1)
	c.Servers[1].Remove("v2")
	if err := c.Servers[3].Place(mkVM("fill", 1, spec, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Servers[3].Place(v2); err != nil {
		t.Fatal(err)
	}
	pick("moved behind the cluster", 3)
	c.Servers[3].Remove("v2")
	pick("carrier gone", 0)
}
