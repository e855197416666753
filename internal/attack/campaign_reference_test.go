package attack

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"bolt/internal/cluster"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// refPlacement is one sender launch: its id and the index of the host it
// landed on, or -1 when no host fit.
type refPlacement struct {
	id   string
	host int
}

// refResult is what one campaign shows from outside: the scorecard, the
// candidate hosts, each wave's sender placements, the senders that landed
// on a victim's host (in launch order), and every window's per-host scores.
type refResult struct {
	out        Outcome
	candidates []int
	waves      [][]refPlacement
	coResident []string
	scores     [][]float64
}

// refCampaign is a zero-hook campaign (NewCampaign, then Run) rewritten as
// plain per-host loops from the documented rules, kept as the reference
// for FuzzCampaignMatchesReference. It draws from a stats.RNG seeded with
// seed in the order NewCampaign and Run document: each background tenant's
// spec stream and noise seed, the victim spec's stream, each victim's
// seed, the per-server noise streams, then per wave the churn moves and
// each sender's seed. It places victims and senders through its own scans
// of the schedulers' documented orders (refPick): least-loaded takes the
// feasible host with the most free vCPUs, lowest index first; Quasar the
// feasible host least in (overlap, free vCPUs descending, index), the
// overlap summing demand[r] · host[r] over all ten resources in resource
// order with host[r] the clamped placement-order fold of the co-residents'
// demand; affinity the feasible host running a victim with the most free
// vCPUs, lowest index first, else least-loaded. Every host is scored on
// every tick of every window from the co-residents' demand on the victim
// signature's two uncore resources plus its stream's noise, and a sender
// is judged on its host's mean score; ground truth is a per-host scan of
// the VMs for a victim id.
//
// What it shares with production, each with its own oracle:
//   - sim.NewServers and Server.Place, Remove, VMs and FreeVCPUs
//     (FuzzPlacementMatchesReference in sim);
//   - the workload constructors, workload.NewApp and App.Demand
//     (TestDemandMatchesReferenceBitExact in workload);
//   - stats.RNG, the seeded stream every campaign is a function of
//     (the stats RNG tests).
//
// Nothing else: not cluster, fleet, the observation plane, the tenant
// type, victimUncoreSignature or any of Campaign's methods.
func refCampaign(seed uint64, servers int, sched string, trickle bool) refResult {
	rng := stats.NewRNG(seed)
	names := make([]string, servers)
	for i := range names {
		names[i] = fmt.Sprintf("ref-%d", i)
	}
	hosts := sim.NewServers(names, sim.ServerConfig{})
	live := make([][]string, servers)
	nextBG := 0
	addBackground := func(i int) {
		k := nextBG
		nextBG++
		spec := []func(*stats.RNG, int) workload.Spec{
			workload.Memcached, workload.Hadoop, workload.Spark, workload.Webserver,
		}[k%4](rng.Split(), k)
		app := workload.NewApp(spec, workload.Constant{Level: campaignBackgroundLoad}, rng.Uint64())
		id := fmt.Sprintf("bg-%d", k)
		if hosts[i].Place(&sim.VM{ID: id, VCPUs: 1 + k%3, App: app}) == nil {
			live[i] = append(live[i], id)
		}
	}
	for i := 0; i < servers; i++ {
		for j := 0; j < CampaignBackgroundVMs; j++ {
			addBackground(i)
		}
	}

	victimSpec := workload.SQLDatabase(rng.Split(), 2)
	victimSpec.Jitter = 0
	isVictim := map[string]bool{}
	hasVictim := func(s *sim.Server) bool {
		for _, vm := range s.VMs() {
			if isVictim[vm.ID] {
				return true
			}
		}
		return false
	}
	for i := 0; i < max(1, servers/64); i++ {
		id := fmt.Sprintf("victim-%d", i)
		app := workload.NewApp(victimSpec, workload.Constant{Level: campaignVictimLoad}, rng.Uint64())
		vm := &sim.VM{ID: id, VCPUs: 4, App: app}
		h := refPick(hosts, vm, 0, sched, nil)
		if h < 0 || hosts[h].Place(vm) != nil {
			panic("refCampaign: no host for a victim")
		}
		isVictim[id] = true
	}

	// The victim signature: the two uncore resources with the largest base
	// demand, lowest index first on a tie.
	var sig [2]sim.Resource
	for n := range sig {
		best := sim.Resource(-1)
		for r := sim.Resource(0); r < sim.NumResources; r++ {
			if r.IsCore() || (n == 1 && r == sig[0]) {
				continue
			}
			if best < 0 || victimSpec.Base[r] > victimSpec.Base[best] {
				best = r
			}
		}
		sig[n] = best
	}
	engine := rng.Split()
	noise := make([]*stats.RNG, servers)
	for i := range noise {
		noise[i] = engine.Split()
	}

	var res refResult
	waves, perWave := 1, CampaignSenders
	if trickle {
		waves, perWave = CampaignSenders, 1
	}
	now, nextSender, liveSenders, coRes, trueCands := sim.Tick(0), 0, 0, 0, 0
	seen := map[int]bool{}
	for wave := 0; wave < waves; wave++ {
		if wave > 0 {
			for m := 0; m < 1+servers/32; m++ {
				src := rng.Intn(servers)
				if n := len(live[src]); n > 2 {
					hosts[src].Remove(live[src][n-1])
					live[src] = live[src][:n-1]
				}
				addBackground(rng.Intn(servers))
			}
		}

		var placed []refPlacement
		for k := 0; k < perWave; k++ {
			id := fmt.Sprintf("sender-%d", nextSender)
			nextSender++
			probe := workload.Spec{Label: "probe:sender", Class: "probe"}
			vm := &sim.VM{ID: id, VCPUs: 1, App: workload.NewApp(probe, workload.Constant{Level: 0}, rng.Uint64())}
			res.out.Launches++
			h := refPick(hosts, vm, now, sched, hasVictim)
			if h < 0 || hosts[h].Place(vm) != nil {
				h = -1
			}
			placed = append(placed, refPlacement{id, h})
			if h >= 0 {
				liveSenders++
				if hasVictim(hosts[h]) {
					coRes++
					res.coResident = append(res.coResident, id)
				}
			}
		}
		res.waves = append(res.waves, placed)

		scores := make([]float64, servers)
		for t := now; t < now+CampaignProbeWindow; t++ {
			for i, s := range hosts {
				p := refPressure(s, sig[0], t) + refPressure(s, sig[1], t)
				p += (noise[i].Float64() - 0.5) * 4
				scores[i] += p
			}
		}
		now += CampaignProbeWindow
		res.scores = append(res.scores, scores)
		res.out.VMs = 0
		for _, s := range hosts {
			res.out.VMs += len(s.VMs())
		}
		res.out.ProbeTicks += CampaignProbeWindow * liveSenders

		for _, p := range placed {
			if p.host < 0 {
				continue
			}
			if scores[p.host]/CampaignProbeWindow >= CampaignProbeThreshold {
				res.out.Candidates++
				if hasVictim(hosts[p.host]) {
					trueCands++
				}
				if !seen[p.host] {
					seen[p.host] = true
					res.candidates = append(res.candidates, p.host)
				}
			} else if trickle {
				hosts[p.host].Remove(p.id)
				liveSenders--
			}
		}
	}
	res.out.CoResP = float64(coRes) / float64(res.out.Launches)
	if res.out.Candidates > 0 {
		res.out.Precision = float64(trueCands) / float64(res.out.Candidates)
	}
	return res
}

// refPressure is what a probe with no VM of its own reads on uncore
// resource r of s at tick t: the co-residents' demand on r summed in
// placement order, at full visibility, capped at 100.
func refPressure(s *sim.Server, r sim.Resource, t sim.Tick) float64 {
	total := 0.0
	for _, vm := range s.VMs() {
		total += vm.App.Demand(t)[r]
	}
	return min(total, 100)
}

// refPick places vm under the named scheduler by scanning every host in
// its documented order; hasVictim, nil while the victims themselves are
// placed, is what the affinity request of a sender reads.
func refPick(hosts []*sim.Server, vm *sim.VM, t sim.Tick, sched string, hasVictim func(*sim.Server) bool) int {
	mostFree := func(ok func(*sim.Server) bool) int {
		best := -1
		for i, s := range hosts {
			if f := s.FreeVCPUs(); f >= vm.VCPUs && f > 0 && ok(s) && (best < 0 || f > hosts[best].FreeVCPUs()) {
				best = i
			}
		}
		return best
	}
	switch {
	case sched == "affinity" && hasVictim != nil:
		if best := mostFree(hasVictim); best >= 0 {
			return best
		}
	case sched == "quasar":
		demand := vm.App.Demand(t)
		best, bestOverlap := -1, 0.0
		for i, s := range hosts {
			f := s.FreeVCPUs()
			if f < vm.VCPUs {
				continue
			}
			overlap := 0.0
			for r := sim.Resource(0); r < sim.NumResources; r++ {
				host := 0.0
				for _, co := range s.VMs() {
					host = min(max(host+co.App.Demand(t)[r], 0), 100)
				}
				overlap += demand[r] * host
			}
			if best < 0 || overlap < bestOverlap || (overlap == bestOverlap && f > hosts[best].FreeVCPUs()) {
				best, bestOverlap = i, overlap
			}
		}
		return best
	}
	return mostFree(func(*sim.Server) bool { return true })
}

// observeCampaign runs c with an AfterWindow hook that records what the
// reference reports: each window's scores, and each wave's sender
// placements and co-resident senders as Cluster.HostOf resolves them at
// the window's end, before the judgement. The hook reads every host's
// score, which leaves the outcome as it is.
func observeCampaign(c *Campaign) refResult {
	var res refResult
	launched := 0
	res.out = c.Run(Hooks{AfterWindow: func(_ int, scores []float64) {
		res.scores = append(res.scores, slices.Clone(scores))
		var wave []refPlacement
		for ; launched < c.nextSender; launched++ {
			id := fmt.Sprintf("sender-%d", launched)
			host := c.Cl.HostOf(id)
			wave = append(wave, refPlacement{id, slices.Index(c.Cl.Servers, host)})
			if host == nil {
				continue
			}
			for _, v := range c.Victims {
				if c.Cl.HostOf(v) == host {
					res.coResident = append(res.coResident, id)
					break
				}
			}
		}
		res.waves = append(res.waves, wave)
	}})
	res.candidates = c.CandidateHosts
	return res
}

// checkCampaign fails unless a zero-hook campaign and an observed one
// (observeCampaign) both match refCampaign under the scheduler of the
// same name: the Outcome and candidate hosts, each wave's placements, the
// co-resident senders, and every window's per-host scores bit for bit.
func checkCampaign(t *testing.T, seed uint64, servers int, sched func() cluster.Scheduler, trickle bool) {
	t.Helper()
	name := fmt.Sprintf("seed=%d servers=%d %s trickle=%v", seed, servers, sched().Name(), trickle)
	want := refCampaign(seed, servers, sched().Name(), trickle)

	bare := NewCampaign(stats.NewRNG(seed), servers, sched(), trickle)
	if out := bare.Run(Hooks{}); out != want.out {
		t.Fatalf("%s: Outcome %+v, reference %+v", name, out, want.out)
	}
	if !slices.Equal(bare.CandidateHosts, want.candidates) {
		t.Fatalf("%s: candidate hosts %v, reference %v", name, bare.CandidateHosts, want.candidates)
	}

	got := observeCampaign(NewCampaign(stats.NewRNG(seed), servers, sched(), trickle))
	if got.out != want.out {
		t.Fatalf("%s, observed: Outcome %+v, reference %+v", name, got.out, want.out)
	}
	if !reflect.DeepEqual(got.waves, want.waves) {
		t.Fatalf("%s: wave placements %v, reference %v", name, got.waves, want.waves)
	}
	if !slices.Equal(got.coResident, want.coResident) {
		t.Fatalf("%s: co-resident senders %v, reference %v", name, got.coResident, want.coResident)
	}
	if len(got.scores) != len(want.scores) {
		t.Fatalf("%s: %d windows, reference %d", name, len(got.scores), len(want.scores))
	}
	for w := range want.scores {
		for i := range want.scores[w] {
			if math.Float64bits(got.scores[w][i]) != math.Float64bits(want.scores[w][i]) {
				t.Fatalf("%s: window %d server %d scored %v, reference %v", name, w, i, got.scores[w][i], want.scores[w][i])
			}
		}
	}
}

// FuzzCampaignMatchesReference is the campaign's differential oracle:
// production NewCampaign and Run against refCampaign, which shares only
// placement primitives, the workload constructors and the RNG with them
// (its doc lists them), over a seed, 1–256 servers, one of the three
// schedulers of readSetSchedulers, and bulk or trickle (checkCampaign).
func FuzzCampaignMatchesReference(f *testing.F) {
	f.Add(uint64(42), uint16(255), uint8(0), false)
	f.Add(uint64(42), uint16(255), uint8(1), true)
	f.Add(uint64(42), uint16(255), uint8(2), false)
	f.Add(uint64(43), uint16(255), uint8(2), true)
	f.Add(uint64(7), uint16(63), uint8(0), true)
	f.Add(uint64(7), uint16(63), uint8(1), false)
	f.Add(uint64(3), uint16(0), uint8(2), true)
	f.Add(uint64(11), uint16(129), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed uint64, servers16 uint16, sched8 uint8, trickle bool) {
		checkCampaign(t, seed, 1+int(servers16)%256, readSetSchedulers[int(sched8)%len(readSetSchedulers)], trickle)
	})
}

// TestCampaignCoResidencyIsHostOf is the ground-truth relation: with no
// defender acting, a campaign counts a launch as co-resident, and a
// candidate as true, exactly when Cluster.HostOf puts that sender on a
// host where it also puts a victim. The senders' hosts and the scores the
// judgement reads are taken at each window's end, before the judgement;
// a sender is a candidate when its host's mean score reaches
// CampaignProbeThreshold.
func TestCampaignCoResidencyIsHostOf(t *testing.T) {
	for _, servers := range []int{64, 256} {
		for _, sched := range readSetSchedulers {
			for _, trickle := range []bool{false, true} {
				name := fmt.Sprintf("servers=%d %s trickle=%v", servers, sched().Name(), trickle)
				c := NewCampaign(stats.NewRNG(uint64(servers)+5), servers, sched(), trickle)
				coRes, trueCands, launched := 0, 0, 0
				out := c.Run(Hooks{AfterWindow: func(_ int, scores []float64) {
					for ; launched < c.nextSender; launched++ {
						host := c.Cl.HostOf(fmt.Sprintf("sender-%d", launched))
						if host == nil {
							continue
						}
						onVictim := slices.ContainsFunc(c.Victims, func(v string) bool { return c.Cl.HostOf(v) == host })
						if onVictim {
							coRes++
						}
						if onVictim && scores[slices.Index(c.Cl.Servers, host)]/CampaignProbeWindow >= CampaignProbeThreshold {
							trueCands++
						}
					}
				}})
				if c.coRes != coRes || c.trueCands != trueCands {
					t.Fatalf("%s: campaign counts %d co-resident launches and %d true candidates, HostOf %d and %d",
						name, c.coRes, c.trueCands, coRes, trueCands)
				}
				if want := float64(coRes) / float64(out.Launches); out.CoResP != want {
					t.Fatalf("%s: CoResP %v, HostOf gives %v", name, out.CoResP, want)
				}
				if _, ok := c.Cl.Sched.(*cluster.Affinity); ok && coRes == 0 {
					t.Fatalf("%s: no sender landed on a victim's host; the relation would be vacuous", name)
				}
			}
		}
	}
}
