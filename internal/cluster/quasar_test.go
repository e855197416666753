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
//
// It sums vm.App.Demand(t) over each host's VMs itself, clamping each
// partial sum to [0, 100] as Vector.Set does, so a fault in the observation
// plane behind Pick's Server.HostDemand shows as a mismatch. It shares only
// the FreeVCPUs and VMs accessors with Pick.
func refQuasarRank(servers []*sim.Server, vm *sim.VM, t sim.Tick) []quasarCand {
	demand := vm.App.Demand(t)
	var cands []quasarCand
	for i, s := range servers {
		if s.FreeVCPUs() < vm.VCPUs {
			continue
		}
		var host sim.Vector
		for _, tenant := range s.VMs() {
			for r, d := range tenant.App.Demand(t) {
				host[r] = min(max(host[r]+d, 0), 100)
			}
		}
		overlap := 0.0
		for r, d := range demand {
			overlap += d * host[r]
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

// askedApp is a constant Demander that records every need set the host's
// observation plane asks of it.
type askedApp struct {
	d     sim.Vector
	asked *[]sim.ResourceSet
}

func (a askedApp) Demand(sim.Tick) sim.Vector { return a.d }
func (a askedApp) DemandInto(_ sim.Tick, out *sim.Vector, need sim.ResourceSet) {
	*a.asked = append(*a.asked, need)
	*out = a.d
}
func (a askedApp) Sensitivity() sim.Vector { return sim.Vector{} }

// TestQuasarPickReadsOnlyDemandedResources pins what a pick reads of the
// co-residents: nothing for a zero-demand VM, which takes the feasible
// host with the most free vCPUs, and for a VM that demands two resources
// one pass per host over those two, at a first tick and at the next.
func TestQuasarPickReadsOnlyDemandedResources(t *testing.T) {
	var two sim.Vector
	two.Set(sim.LLC, 40)
	two.Set(sim.DiskBW, 25)
	for _, tc := range []struct {
		name   string
		demand sim.Vector
		want   sim.ResourceSet
	}{
		{"zero demand", sim.Vector{}, 0},
		{"LLC and DiskBW", two, 1<<sim.LLC | 1<<sim.DiskBW},
	} {
		var asked []sim.ResourceSet
		servers := make([]*sim.Server, 6)
		for i := range servers {
			servers[i] = sim.NewServer(fmt.Sprintf("q%d", i), sim.ServerConfig{})
			for j := 0; j < 1+i%3; j++ {
				var d sim.Vector
				for r := range d {
					d.Set(sim.Resource(r), float64(10*i+j+r))
				}
				vm := &sim.VM{ID: fmt.Sprintf("t%d-%d", i, j), VCPUs: 1 + (i+j)%4, App: askedApp{d, &asked}}
				if err := servers[i].Place(vm); err != nil {
					t.Fatal(err)
				}
			}
		}
		vm := &sim.VM{ID: "incoming", VCPUs: 2, App: constApp{tc.demand}}
		got := -1
		for _, at := range []sim.Tick{3, 4} {
			asked = asked[:0]
			got = (Quasar{}).Pick(servers, vm, at)
			for _, need := range asked {
				if need != tc.want {
					t.Fatalf("%s at tick %d: a co-resident was asked for %010b, want %010b", tc.name, at, need, tc.want)
				}
			}
			if tc.want == 0 && len(asked) != 0 {
				t.Fatalf("%s at tick %d: %d co-resident demand reads, want none", tc.name, at, len(asked))
			}
			if tc.want != 0 && len(asked) == 0 {
				t.Fatalf("%s at tick %d: no co-resident demand read", tc.name, at)
			}
		}
		if want := refQuasarRank(servers, vm, 4)[0].idx; got != want {
			t.Fatalf("%s: Pick = %d, sorted reference %d", tc.name, got, want)
		}
	}
}

// fuzzVector draws a demand vector whose entries are each zero with
// probability 1/3 and otherwise uniform in (0, 100).
func fuzzVector(rng *stats.RNG) sim.Vector {
	var d sim.Vector
	for r := range d {
		if rng.Intn(3) > 0 {
			d.Set(sim.Resource(r), 100*rng.Float64())
		}
	}
	return d
}

// FuzzQuasarPickMatchesReference is Pick's differential oracle against the
// head of refQuasarRank, which reads every host's full demand. A fleet is
// one of randomQuasarFleet's shapes plus fuzzed tenants with zero entries;
// the incoming VM demands nothing (a probe sender), all but the zero disk
// capacity (Memcached), everything (Hadoop), or a fuzzed vector. Before
// the pick each host's plane is left, at random, holding a read from an
// earlier tick, a same-tick fill of one resource, and an epoch bump from a
// Place or Remove after it, so the pick meets stale and partly filled
// planes. Pick runs first, on the plane as the fuzzer left it.
func FuzzQuasarPickMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(8), uint8(0), uint8(0x0f), uint16(5))
	f.Add(uint64(2), uint8(1), uint8(12), uint8(1), uint8(0x07), uint16(40))
	f.Add(uint64(3), uint8(0), uint8(15), uint8(2), uint8(0x03), uint16(1))
	f.Add(uint64(4), uint8(2), uint8(4), uint8(3), uint8(0x0c), uint16(900))
	f.Add(uint64(5), uint8(0), uint8(9), uint8(3), uint8(0x0f), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, shape8, n8, kind8, pre8 uint8, at16 uint16) {
		rng := stats.NewRNG(seed)
		servers := randomQuasarFleet(rng, 1+int(n8)%16, int(shape8)%3)
		at := sim.Tick(1 + int(at16)%2000)
		for i, s := range servers {
			for j, n := 0, rng.Intn(3); j < n; j++ {
				_ = s.Place(&sim.VM{ID: fmt.Sprintf("z%d-%d", i, j), VCPUs: 1 + rng.Intn(3), App: constApp{fuzzVector(rng)}})
			}
			if pre8&1 != 0 && rng.Intn(2) == 0 {
				s.HostDemand(at-1, sim.ResourceSet(rng.Intn(int(sim.EveryResource)+1)))
			}
			if pre8&2 != 0 && rng.Intn(2) == 0 {
				s.ObservedPressure(nil, sim.Resource(rng.Intn(sim.NumResources)), at)
			}
			if pre8&4 != 0 && rng.Intn(2) == 0 {
				if vms := s.VMs(); len(vms) > 0 && rng.Intn(2) == 0 {
					s.Remove(vms[rng.Intn(len(vms))].ID)
				} else {
					_ = s.Place(&sim.VM{ID: fmt.Sprintf("b%d", i), VCPUs: 1, App: constApp{fuzzVector(rng)}})
				}
			}
			if pre8&8 != 0 && rng.Intn(2) == 0 {
				s.ObservedPressure(nil, sim.Resource(rng.Intn(sim.NumResources)), at)
			}
		}
		var app sim.Demander
		switch kind8 % 4 {
		case 0:
			app = workload.NewApp(workload.Spec{Label: "probe:sender", Class: "probe"}, workload.Constant{Level: 0}, rng.Uint64())
		case 1:
			app = workload.NewApp(workload.Memcached(rng.Split(), rng.Intn(3)), nil, rng.Uint64())
		case 2:
			app = workload.NewApp(workload.Hadoop(rng.Split(), rng.Intn(3)), nil, rng.Uint64())
		default:
			app = constApp{fuzzVector(rng)}
		}
		vm := &sim.VM{ID: "incoming", VCPUs: 1 + rng.Intn(8), App: app}
		got := (Quasar{}).Pick(servers, vm, at)
		want := -1
		rank := refQuasarRank(servers, vm, at)
		if len(rank) > 0 {
			want = rank[0].idx
		}
		if got != want {
			t.Fatalf("Pick = %d, sorted reference %d (demand %v, ranking %v)", got, want, app.Demand(at), rank)
		}
	})
}

// TestReadsHostDemand pins which schedulers' picks read host demand: Quasar,
// and an Affinity scheduler exactly when its fallback does.
func TestReadsHostDemand(t *testing.T) {
	for _, tc := range []struct {
		sched Scheduler
		want  bool
	}{
		{Quasar{}, true},
		{LeastLoaded{}, false},
		{NewAffinity(LeastLoaded{}), false},
		{NewAffinity(Quasar{}), true},
		{NewPSSF(0), false},
		{NewBandit(EpsilonGreedy, stats.NewRNG(1)), false},
	} {
		if got := ReadsHostDemand(tc.sched); got != tc.want {
			t.Errorf("ReadsHostDemand(%s) = %v, want %v", tc.sched.Name(), got, tc.want)
		}
	}
}
