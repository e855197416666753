package cluster

import (
	"fmt"
	"testing"

	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// pssfPlace places n 1-vCPU VMs for the tenant and returns the hosting
// server indexes.
func pssfPlace(t *testing.T, c *Cluster, tenant string, n, from int) []int {
	t.Helper()
	spec := workload.VictimSpecs(9, 1)[0]
	idx := make(map[*sim.Server]int, len(c.Servers))
	for i, s := range c.Servers {
		idx[s] = i
	}
	var hosts []int
	for i := 0; i < n; i++ {
		host, err := c.Place(mkVM(fmt.Sprintf("%s-%d", tenant, from+i), 1, spec, uint64(from+i)), 0)
		if err != nil {
			t.Fatalf("placing %s-%d: %v", tenant, from+i, err)
		}
		hosts = append(hosts, idx[host])
	}
	return hosts
}

func TestPSSFConfinesTenantsToGroups(t *testing.T) {
	p := NewPSSF(4)
	c := New(12, sim.ServerConfig{}, p) // 3 groups of 4

	groupOf := func(server int) int { return server / 4 }
	aHosts := pssfPlace(t, c, "alice", 6, 0)
	bHosts := pssfPlace(t, c, "bob", 6, 100)

	ga, gb := groupOf(aHosts[0]), groupOf(bHosts[0])
	if ga == gb {
		t.Fatalf("distinct tenants pinned to the same group %d", ga)
	}
	for _, h := range aHosts {
		if groupOf(h) != ga {
			t.Fatalf("alice VM escaped group %d to server %d", ga, h)
		}
	}
	for _, h := range bHosts {
		if groupOf(h) != gb {
			t.Fatalf("bob VM escaped group %d to server %d", gb, h)
		}
	}
}

func TestPSSFPrefersPreviouslySelectedServers(t *testing.T) {
	p := NewPSSF(4)
	c := New(8, sim.ServerConfig{}, p)

	hosts := pssfPlace(t, c, "svc", 3, 0)
	first := hosts[0]
	for i, h := range hosts {
		if h != first {
			t.Fatalf("VM %d landed on server %d, want the previously-selected %d", i, h, first)
		}
	}
}

func TestPSSFSpillsOnlyWhenGroupFull(t *testing.T) {
	p := NewPSSF(1) // groups of one server: easy to fill
	c := New(2, sim.ServerConfig{Cores: 1, ThreadsPerCore: 2}, p)

	hosts := pssfPlace(t, c, "a", 3, 0)
	if hosts[0] != hosts[1] {
		t.Fatalf("second VM left a non-full group: %v", hosts)
	}
	// The group (2 vCPUs) is full after two placements; the third must
	// spill fleet-wide rather than fail.
	if hosts[2] == hosts[0] {
		t.Fatal("third VM placed on a full group server")
	}
}

func TestPSSFIgnoresAffinitySteering(t *testing.T) {
	// The Repttack steering surface: even when the attacker's VM would
	// benefit from co-location with the victim, PSSF's group pinning must
	// keep distinct tenants apart. (PSSF has no affinity channel at all;
	// this pins that an attacker-style launch pattern still cannot reach.)
	p := NewPSSF(4)
	c := New(8, sim.ServerConfig{}, p)

	vHosts := pssfPlace(t, c, "victim", 1, 0)
	for wave := 0; wave < 8; wave++ {
		aHosts := pssfPlace(t, c, "attacker", 1, 100+wave)
		if aHosts[0] == vHosts[0] {
			t.Fatalf("attacker wave %d reached the victim's server", wave)
		}
	}
}

func TestPSSFTenantOfOverride(t *testing.T) {
	p := NewPSSF(4)
	p.TenantOf = func(id string) string { return "everyone" }
	c := New(8, sim.ServerConfig{}, p)

	a := pssfPlace(t, c, "x", 1, 0)
	b := pssfPlace(t, c, "y", 1, 1)
	// Same tenant under the override → previously-selected-first applies
	// across what the default mapping would call different tenants.
	if a[0] != b[0] {
		t.Fatalf("override ignored: x on %d, y on %d", a[0], b[0])
	}
}

func TestBanditColdActsLikeLeastLoaded(t *testing.T) {
	// With no observations every arm scores equally, so the tie-break
	// (most free vCPUs, lowest index) is exactly LeastLoaded.
	b := NewBandit(UCB, stats.NewRNG(1)) // UCB: no exploration draw at all
	c := New(3, sim.ServerConfig{}, b)
	spec := workload.VictimSpecs(9, 1)[0]

	// UCB's unvisited-arm optimism ties all arms; loading server 0 must
	// push the next placement elsewhere.
	if _, err := c.Place(mkVM("warm-0", 8, spec, 1), 0); err != nil {
		t.Fatal(err)
	}
	host, err := c.Place(mkVM("next", 1, spec, 2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if host == c.Servers[0] {
		t.Fatal("cold bandit stacked the loaded server instead of spreading")
	}
}

func TestBanditSteersAwayFromLeakyHosts(t *testing.T) {
	b := NewBandit(UCB, stats.NewRNG(1))
	c := New(4, sim.ServerConfig{}, b)
	spec := workload.VictimSpecs(9, 1)[0]

	// The detection plane reports server 0 leaking hard, the rest quiet.
	// Several samples per arm so UCB's optimism bonus cannot outweigh the
	// observed means.
	for round := 0; round < 10; round++ {
		b.Observe(0, 1.0)
		for s := 1; s < 4; s++ {
			b.Observe(s, 0.05)
		}
	}
	for i := 0; i < 6; i++ {
		host, err := c.Place(mkVM(fmt.Sprintf("vm-%d", i), 1, spec, uint64(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if host == c.Servers[0] {
			t.Fatalf("placement %d landed on the leaky server", i)
		}
	}
}

func TestBanditObserveClampsAndIgnoresBadInput(t *testing.T) {
	b := NewBandit(EpsilonGreedy, stats.NewRNG(1))
	b.Observe(-1, 0.5) // ignored
	b.Observe(2, -3)   // clamped to 0
	b.Observe(2, 7)    // clamped to 1
	if len(b.n) != 3 || b.n[2] != 2 {
		t.Fatalf("observation counts = %v, want 2 on server 2 and the negative index ignored", b.n)
	}
	if got := b.sum[2] / b.n[2]; got != 0.5 {
		t.Fatalf("mean leak of server 2 = %g, want 0.5 from clamped {0, 1}", got)
	}
}

func TestBanditEpsilonGreedyExplores(t *testing.T) {
	// With Epsilon = 1 every placement explores; over many draws from the
	// deterministic stream all feasible hosts should be hit even though
	// server 0 is the exploit choice.
	b := NewBandit(EpsilonGreedy, stats.NewRNG(3))
	b.Epsilon = 1
	c := New(4, sim.ServerConfig{}, b)
	hit := map[int]bool{}
	vm := &sim.VM{ID: "probe", VCPUs: 1}
	for i := 0; i < 64; i++ {
		hit[b.Pick(c.Servers, vm, 0)] = true
	}
	if len(hit) != 4 {
		t.Fatalf("pure exploration hit %d of 4 servers", len(hit))
	}
}

func TestBanditDeterministicPerStream(t *testing.T) {
	run := func() []int {
		b := NewBandit(EpsilonGreedy, stats.NewRNG(42))
		c := New(4, sim.ServerConfig{}, b)
		vm := &sim.VM{ID: "probe", VCPUs: 1}
		var picks []int
		for i := 0; i < 32; i++ {
			b.Observe(i%4, float64(i%5)/5)
			picks = append(picks, b.Pick(c.Servers, vm, 0))
		}
		return picks
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("pick %d differs across identical streams: %d vs %d", i, a[i], bb[i])
		}
	}
}
