package cluster

import (
	"fmt"
	"sort"
	"testing"

	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// quasarCand is one feasible host in refQuasarRank.
type quasarCand struct {
	idx     int
	overlap float64
	free    int
}

// refQuasarRank is Quasar.Pick as it stood before the one-pass argmin,
// stopping short of taking the head: every feasible host, sorted by
// (overlap ascending, free vCPUs descending, index ascending). Kept as the
// reference; the old Pick returned the head's index, or -1 when empty.
func refQuasarRank(servers []*sim.Server, vm *sim.VM, t sim.Tick) []quasarCand {
	demand := vm.App.Demand(t)
	var cands []quasarCand
	for i, s := range servers {
		if s.FreeVCPUs() < vm.VCPUs {
			continue
		}
		host := s.HostDemand(t)
		overlap := 0.0
		for _, r := range sim.AllResources() {
			overlap += demand.Get(r) * host.Get(r)
		}
		cands = append(cands, quasarCand{i, overlap, s.FreeVCPUs()})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].overlap != cands[b].overlap {
			return cands[a].overlap < cands[b].overlap
		}
		if cands[a].free != cands[b].free {
			return cands[a].free > cands[b].free
		}
		return cands[a].idx < cands[b].idx
	})
	return cands
}

// randomQuasarFleet builds n servers in one of three shapes: 0, random tenants
// (some hosts left empty, so overlaps tie at 0 and are split by free vCPUs
// and index); 1, twin hosts whose tenants are identical but whose free vCPUs
// differ by a zero-demand filler (overlap ties split by free vCPUs); and 2,
// a full fleet (no feasible host).
func randomQuasarFleet(rng *stats.RNG, n, shape int) []*sim.Server {
	mk := []func(*stats.RNG, int) workload.Spec{
		workload.Memcached, workload.Hadoop, workload.Spark, workload.Webserver,
	}
	filler := workload.Spec{Label: "filler", Class: "probe"} // zero demand
	servers := make([]*sim.Server, n)
	for i := range servers {
		s := sim.NewServer(fmt.Sprintf("q%d", i), sim.ServerConfig{})
		servers[i] = s
		switch shape {
		case 0:
			for j, vms := 0, rng.Intn(5); j < vms; j++ {
				spec := mk[rng.Intn(len(mk))](rng.Split(), rng.Intn(3))
				app := workload.NewApp(spec, workload.Constant{Level: 0.2 + 0.8*rng.Float64()}, rng.Uint64())
				_ = s.Place(&sim.VM{ID: fmt.Sprintf("r%d-%d", i, j), VCPUs: 1 + rng.Intn(4), App: app})
			}
		case 1:
			// Twins: hosts 2k and 2k+1 carry the same tenant (same spec,
			// seed and load), so their overlaps are equal.
			spec := mk[(i/2)%len(mk)](stats.NewRNG(uint64(i/2)), 0)
			app := workload.NewApp(spec, workload.Constant{Level: 0.5}, uint64(i/2))
			if err := s.Place(&sim.VM{ID: fmt.Sprintf("t%d", i), VCPUs: 2, App: app}); err != nil {
				panic(err)
			}
			if vcpus := rng.Intn(4); vcpus > 0 {
				_ = s.Place(&sim.VM{ID: fmt.Sprintf("f%d", i), VCPUs: vcpus, App: workload.NewApp(filler, nil, 0)})
			}
		case 2:
			_ = s.Place(&sim.VM{ID: fmt.Sprintf("full%d", i), VCPUs: s.FreeVCPUs(), App: workload.NewApp(filler, nil, 0)})
		}
	}
	return servers
}

// TestQuasarPickMatchesSortReference pins the one-pass Pick to the sorted
// head it replaced over random fleets with overlap ties at 0, equal free
// vCPU counts, infeasible hosts and fully booked fleets, and pins its
// allocations.
func TestQuasarPickMatchesSortReference(t *testing.T) {
	rng := stats.NewRNG(11)
	var byFree, byIndex, full int
	for trial := 0; trial < 500; trial++ {
		servers := randomQuasarFleet(rng, 1+rng.Intn(12), rng.Intn(3))
		spec := workload.Hadoop(rng.Split(), rng.Intn(3))
		vm := &sim.VM{ID: "incoming", VCPUs: 1 + rng.Intn(8), App: workload.NewApp(spec, nil, rng.Uint64())}
		at := sim.Tick(rng.Intn(1000))
		rank := refQuasarRank(servers, vm, at)
		want := -1
		switch {
		case len(rank) == 0:
			full++
		case len(rank) > 1 && rank[0].overlap == rank[1].overlap && rank[0].free != rank[1].free:
			byFree++
		case len(rank) > 1 && rank[0].overlap == rank[1].overlap:
			byIndex++
		}
		if len(rank) > 0 {
			want = rank[0].idx
		}
		if got := (Quasar{}).Pick(servers, vm, at); got != want {
			t.Fatalf("trial %d: Pick = %d, sorted reference %d (ranking %v)", trial, got, want, rank)
		}
	}
	if byFree == 0 || byIndex == 0 || full == 0 {
		t.Fatalf("random fleets gave %d overlap ties split by free vCPUs, %d split by index and %d full fleets; each must occur",
			byFree, byIndex, full)
	}

	servers := randomQuasarFleet(stats.NewRNG(3), 64, 0)
	vm := &sim.VM{ID: "incoming", VCPUs: 2, App: workload.NewApp(workload.Spark(stats.NewRNG(4), 0), nil, 5)}
	pick := func() { (Quasar{}).Pick(servers, vm, 7) }
	pick() // fill every host's snapshot for tick 7
	if allocs := testing.AllocsPerRun(100, pick); allocs != 0 {
		t.Fatalf("Quasar.Pick allocated %.2f objects per call, want 0", allocs)
	}
}
