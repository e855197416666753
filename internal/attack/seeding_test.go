package attack

import (
	"fmt"
	"reflect"
	"testing"

	"bolt/internal/cluster"
	"bolt/internal/fleet"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// refAddBackground is the serial background-tenant launch NewCampaign used
// before seeding moved to the shard pool, kept verbatim as the reference:
// it builds the tenant's spec and App eagerly, from the campaign RNG.
func (c *Campaign) refAddBackground(i int) {
	mk := []func(*stats.RNG, int) workload.Spec{
		workload.Memcached, workload.Hadoop, workload.Spark, workload.Webserver,
	}
	spec := mk[c.nextBG%len(mk)](c.rng.Split(), c.nextBG)
	app := workload.NewApp(spec, workload.Constant{Level: campaignBackgroundLoad}, c.rng.Uint64())
	id := fmt.Sprintf("bg-%d", c.nextBG)
	vm := &sim.VM{ID: id, VCPUs: 1 + c.nextBG%3, App: app}
	c.nextBG++
	if err := c.Cl.Servers[i].Place(vm); err != nil {
		return // host full: the tenant's launch fails, as in production
	}
	c.live[i] = append(c.live[i], id)
}

// refNewCampaign is NewCampaign with the serial seeding loop it had before
// the shard pool took it over, and the probe monitor it had before windows
// scored only the hosts someone reads: it scores every host every tick, so
// it is also the reference for the read set (TestCampaignScoresReadHosts).
func refNewCampaign(rng *stats.RNG, servers int, sched cluster.Scheduler, trickle bool) *Campaign {
	c := &Campaign{
		rng:     rng,
		trickle: trickle,
		servers: servers,
	}
	c.Cl = cluster.New(servers, sim.ServerConfig{}, sched)
	c.aff, _ = sched.(*cluster.Affinity)

	c.live = make([][]string, servers)
	for i := range c.Cl.Servers {
		for j := 0; j < CampaignBackgroundVMs; j++ {
			c.refAddBackground(i)
		}
	}

	c.VictimSpec = workload.SQLDatabase(rng.Split(), 2)
	c.VictimSpec.Jitter = 0
	nv := servers / 64
	if nv < 1 {
		nv = 1
	}
	c.Victims = make([]string, nv)
	for i := range c.Victims {
		id := fmt.Sprintf("victim-%d", i)
		app := workload.NewApp(c.VictimSpec, workload.Constant{Level: campaignVictimLoad}, rng.Uint64())
		if c.aff != nil {
			c.aff.Label(id, "svc=db")
		}
		if _, err := c.Cl.Place(&sim.VM{ID: id, VCPUs: 4, App: app}, 0); err != nil {
			panic(err)
		}
		c.Victims[i] = id
	}

	c.r1, c.r2 = victimUncoreSignature(c.VictimSpec.Base)

	c.Engine = fleet.NewEngine(c.Cl, rng.Split())
	c.scores = make([]float64, servers)
	c.probed = make([]bool, servers)
	c.monitor = func(w *fleet.World) {
		for t := w.Tick; t <= w.Last; t++ {
			p := w.Server.ObservedPressure(nil, c.r1, t) +
				w.Server.ObservedPressure(nil, c.r2, t)
			p += (w.RNG.Float64() - 0.5) * 4
			c.scores[w.Index] += p
		}
	}
	c.idx = make(map[*sim.Server]int, servers)
	for i, s := range c.Cl.Servers {
		c.idx[s] = i
	}
	c.probeSpec = workload.Spec{Label: "probe:sender", Class: "probe"}
	c.candSeen = map[int]bool{}
	return c
}

// sameFleet fails unless both campaigns hold the same VMs on every server,
// in placement order, with the same vCPUs, ==-identical specs and
// bit-identical demand at a spread of ticks, and the same live lists and
// tenant counter.
func sameFleet(t *testing.T, name string, got, want *Campaign) {
	t.Helper()
	for i := range want.Cl.Servers {
		gv, wv := got.Cl.Servers[i].VMs(), want.Cl.Servers[i].VMs()
		if len(gv) != len(wv) {
			t.Fatalf("%s: server %d holds %d VMs, reference %d", name, i, len(gv), len(wv))
		}
		for j := range wv {
			g, w := gv[j], wv[j]
			if g.ID != w.ID || g.VCPUs != w.VCPUs {
				t.Fatalf("%s: server %d VM %d is %s/%d vCPUs, reference %s/%d", name, i, j, g.ID, g.VCPUs, w.ID, w.VCPUs)
			}
			if ga, wa := appOf(g.App), appOf(w.App); ga.Spec != wa.Spec {
				t.Fatalf("%s: server %d VM %s spec %+v, reference %+v", name, i, g.ID, ga.Spec, wa.Spec)
			}
			for _, at := range []sim.Tick{0, 1, 17, 431, 5000} {
				if gd, wd := g.App.Demand(at), w.App.Demand(at); gd != wd {
					t.Fatalf("%s: server %d VM %s Demand(%d) = %v, reference %v", name, i, g.ID, at, gd, wd)
				}
			}
		}
	}
	if !reflect.DeepEqual(got.live, want.live) {
		t.Fatalf("%s: live %v, reference %v", name, got.live, want.live)
	}
	if got.nextBG != want.nextBG {
		t.Fatalf("%s: nextBG %d, reference %d", name, got.nextBG, want.nextBG)
	}
}

// appOf resolves a VM's workload to the App it runs: a background tenant
// to its built App, building it if no one has read it yet.
func appOf(d sim.Demander) *workload.App {
	if t, ok := d.(*tenant); ok {
		return t.built()
	}
	return d.(*workload.App)
}

// nextDraw returns the campaign RNG's next value without advancing it.
func nextDraw(c *Campaign) uint64 {
	r := *c.rng
	return r.Uint64()
}

// TestCampaignSeedingMatchesSerialReference pins NewCampaign's shard-pool
// seeding against the serial loop it replaced: at every pool width,
// including widths that do not divide the server count and one wider than
// a one-server fleet, the seeded fleet, the campaign RNG's position, the
// zero-hook Run outcome and trickle churn's serial launches all match the
// reference exactly.
func TestCampaignSeedingMatchesSerialReference(t *testing.T) {
	scheds := []func() cluster.Scheduler{
		func() cluster.Scheduler { return cluster.Quasar{} },
		func() cluster.Scheduler { return cluster.NewAffinity(cluster.LeastLoaded{}) },
	}
	for _, servers := range []int{1, 7, 64, 256} {
		for si, mk := range scheds {
			for _, trickle := range []bool{false, true} {
				seed := uint64(1000*servers + 10*si + 3)
				want := refNewCampaign(stats.NewRNG(seed), servers, mk(), trickle)
				wantDraw := nextDraw(want)
				wantOut := want.Run(Hooks{})
				wantAfter := nextDraw(want)
				for _, workers := range []int{1, 2, 3, 8} {
					name := fmt.Sprintf("servers=%d %s trickle=%v workers=%d", servers, mk().Name(), trickle, workers)
					build := func() *Campaign {
						fleet.SetShardWorkers(workers)
						defer fleet.SetShardWorkers(0)
						return NewCampaign(stats.NewRNG(seed), servers, mk(), trickle)
					}

					got, ref := build(), refNewCampaign(stats.NewRNG(seed), servers, mk(), trickle)
					sameFleet(t, name, got, ref)
					if d := nextDraw(got); d != wantDraw {
						t.Fatalf("%s: campaign RNG's next draw after set-up %#x, reference %#x", name, d, wantDraw)
					}
					// Trickle churn launches through the serial
					// addBackground, which shares placeBackground with
					// seeding.
					for m := 0; m < 3*servers+5; m++ {
						i := (m * 5) % servers
						got.addBackground(i)
						ref.refAddBackground(i)
					}
					sameFleet(t, name+" after churn", got, ref)
					if d, w := nextDraw(got), nextDraw(ref); d != w {
						t.Fatalf("%s: campaign RNG's next draw after churn %#x, reference %#x", name, d, w)
					}

					run := build()
					if out := run.Run(Hooks{}); out != wantOut {
						t.Fatalf("%s: Outcome %+v, reference %+v", name, out, wantOut)
					}
					if !reflect.DeepEqual(run.CandidateHosts, want.CandidateHosts) {
						t.Fatalf("%s: candidate hosts %v, reference %v", name, run.CandidateHosts, want.CandidateHosts)
					}
					if d := nextDraw(run); d != wantAfter {
						t.Fatalf("%s: campaign RNG's next draw after Run %#x, reference %#x", name, d, wantAfter)
					}
				}
			}
		}
	}
}

// readFirst reads the tenants of share/8 of c's hosts before anyone else
// does, in an order drawn from order: hosts in a random permutation, each
// host's VMs back to front, each through Demand, DemandInto with a random
// need set, or Sensitivity, at a random tick.
func readFirst(c *Campaign, order uint64, share int) {
	rng := stats.NewRNG(order)
	perm := rng.Perm(len(c.Cl.Servers))
	for _, i := range perm[:len(perm)*share/8] {
		vms := c.Cl.Servers[i].VMs()
		for j := len(vms) - 1; j >= 0; j-- {
			at := sim.Tick(rng.Intn(10000))
			switch rng.Intn(3) {
			case 0:
				vms[j].App.Demand(at)
			case 1:
				var v sim.Vector
				vms[j].App.DemandInto(at, &v, sim.ResourceSet(rng.Intn(int(sim.EveryResource)+1)))
			default:
				vms[j].App.Sensitivity()
			}
		}
	}
}

// churn applies one round of Run's between-wave churn to got and to the
// reference ref, with hosts drawn from hosts: each move retires the last
// live tenant of one server if it has more than two, then launches the
// next tenant on another.
func churn(got, ref *Campaign, hosts *stats.RNG) {
	for m := 0; m < 1+got.servers/32; m++ {
		src, dst := hosts.Intn(got.servers), hosts.Intn(got.servers)
		for _, c := range []*Campaign{got, ref} {
			if n := len(c.live[src]); n > 2 {
				c.Cl.Servers[src].Remove(c.live[src][n-1])
				c.live[src] = c.live[src][:n-1]
			}
		}
		got.addBackground(dst)
		ref.refAddBackground(dst)
	}
}

// FuzzCampaignSeedingMatchesReference is the seeding's differential oracle
// on fuzzed campaigns: a seed, 1–300 servers, one of three schedulers, bulk
// or trickle, a shard width of 1–8, 0–3 churn rounds, and a fuzzed order of
// the tenants' first reads, by host and by tick. Against refNewCampaign,
// which builds every tenant eagerly from the campaign RNG, the fleet must
// match (sameFleet) after seeding and after each churn round, the campaign
// RNG must sit at the same draw, and a zero-hook Run must reach the same
// Outcome, candidate hosts and RNG position.
//
// What the reference shares with production, and what checks each piece
// instead (a fault in a shared piece moves both sides alike):
//   - the schedulers: cluster.NewAffinity, Label and Pick
//     (TestAffinityPickMatchesPerHostScan), Quasar.Pick
//     (FuzzQuasarPickMatchesReference), LeastLoaded.Pick
//     (TestSchedulerInvariants);
//   - cluster.New, Cluster.Place and Server.Place/Remove/VMs
//     (FuzzPlacementMatchesReference in sim);
//   - the workload constructors, workload.NewApp and App.Demand
//     (TestDemandMatchesReferenceBitExact in workload);
//   - fleet.NewEngine and Campaign.Run itself, which the reference
//     campaign also runs (FuzzAdvanceMatchesTicks for the engine,
//     FuzzCampaignScoresReadHosts for the probe read set, and the exper
//     fleet goldens for the waves and the judgement).
func FuzzCampaignSeedingMatchesReference(f *testing.F) {
	f.Add(uint64(42), uint16(255), uint8(0), true, uint8(1), uint8(2), uint64(1), uint8(3))
	f.Add(uint64(7), uint16(0), uint8(1), false, uint8(7), uint8(0), uint64(2), uint8(8))
	f.Add(uint64(3), uint16(63), uint8(2), true, uint8(3), uint8(3), uint64(3), uint8(0))
	f.Add(uint64(11), uint16(299), uint8(1), false, uint8(2), uint8(1), uint64(4), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, servers16 uint16, sched8 uint8, trickle bool, workers8, churn8 uint8, order uint64, share8 uint8) {
		servers := 1 + int(servers16)%300
		sched := readSetSchedulers[int(sched8)%len(readSetSchedulers)]
		workers := 1 + int(workers8)%8
		rounds := int(churn8) % 4
		share := int(share8) % 9
		name := fmt.Sprintf("seed=%d servers=%d %s trickle=%v workers=%d churn=%d order=%d share=%d/8",
			seed, servers, sched().Name(), trickle, workers, rounds, order, share)
		fleet.SetShardWorkers(workers)
		defer fleet.SetShardWorkers(0)

		got := NewCampaign(stats.NewRNG(seed), servers, sched(), trickle)
		ref := refNewCampaign(stats.NewRNG(seed), servers, sched(), trickle)
		readFirst(got, order, share)
		sameFleet(t, name, got, ref)
		if d, w := nextDraw(got), nextDraw(ref); d != w {
			t.Fatalf("%s: campaign RNG's next draw after set-up %#x, reference %#x", name, d, w)
		}
		hosts := stats.NewRNG(order ^ seed)
		for r := 0; r < rounds; r++ {
			churn(got, ref, hosts)
			readFirst(got, order+uint64(r)+1, share)
			sameFleet(t, fmt.Sprintf("%s after churn round %d", name, r), got, ref)
			if d, w := nextDraw(got), nextDraw(ref); d != w {
				t.Fatalf("%s: campaign RNG's next draw after churn round %d %#x, reference %#x", name, r, d, w)
			}
		}

		run := NewCampaign(stats.NewRNG(seed), servers, sched(), trickle)
		want := refNewCampaign(stats.NewRNG(seed), servers, sched(), trickle)
		readFirst(run, order, share)
		if out, wantOut := run.Run(Hooks{}), want.Run(Hooks{}); out != wantOut {
			t.Fatalf("%s: Outcome %+v, reference %+v", name, out, wantOut)
		}
		if !reflect.DeepEqual(run.CandidateHosts, want.CandidateHosts) {
			t.Fatalf("%s: candidate hosts %v, reference %v", name, run.CandidateHosts, want.CandidateHosts)
		}
		if d, w := nextDraw(run), nextDraw(want); d != w {
			t.Fatalf("%s: campaign RNG's next draw after Run %#x, reference %#x", name, d, w)
		}
	})
}

// isBuilt reports whether vm is a background tenant whose App has been
// built, and whether it is a background tenant at all.
func isBuilt(vm *sim.VM) (built, bg bool) {
	t, ok := vm.App.(*tenant)
	return ok && t.app != nil, ok
}

// TestCampaignBuildsOnlyReadTenants pins what the lazy tenants save. Under
// LeastLoaded, which never reads a demand, NewCampaign builds no tenant, a
// bulk Run with no hooks builds exactly the tenants on the hosts its
// senders probed, and a trickle Run builds no tenant on a host no wave
// probed and every tenant on a host the last wave probed. With a no-op
// AfterWindow every host is read, so every tenant is built. Under Quasar,
// whose first victim pick reads every host, NewCampaign returns with every
// tenant built; its zero-demand senders read no host, so a trickle Run
// leaves unbuilt the churned tenants on hosts no wave probed.
func TestCampaignBuildsOnlyReadTenants(t *testing.T) {
	for _, servers := range []int{64, 256} {
		for _, trickle := range []bool{false, true} {
			name := fmt.Sprintf("servers=%d trickle=%v", servers, trickle)
			c := NewCampaign(stats.NewRNG(uint64(servers)), servers, cluster.LeastLoaded{}, trickle)
			for i, s := range c.Cl.Servers {
				for _, vm := range s.VMs() {
					if b, _ := isBuilt(vm); b {
						t.Fatalf("%s: tenant %s on server %d built by NewCampaign", name, vm.ID, i)
					}
				}
			}
			everProbed := make([]bool, servers)
			hooks := Hooks{}
			if trickle {
				// A no-op AfterTick reads no score; it lets the test see
				// every wave's probed hosts.
				hooks.AfterTick = func(sim.Tick, []fleet.Event) {
					for i, p := range c.probed {
						everProbed[i] = everProbed[i] || p
					}
				}
			}
			c.Run(hooks)
			built, unbuilt := 0, 0
			for i, s := range c.Cl.Servers {
				for _, vm := range s.VMs() {
					b, bg := isBuilt(vm)
					switch {
					case !bg:
						continue
					case !trickle && b != c.probed[i]:
						t.Fatalf("%s: tenant %s on server %d built=%v, probed=%v", name, vm.ID, i, b, c.probed[i])
					case trickle && b && !everProbed[i]:
						t.Fatalf("%s: tenant %s built on server %d, which no wave probed", name, vm.ID, i)
					case trickle && !b && c.probed[i]:
						t.Fatalf("%s: tenant %s unbuilt on server %d, which the last wave probed", name, vm.ID, i)
					}
					if b {
						built++
					} else {
						unbuilt++
					}
				}
			}
			if built == 0 || unbuilt == 0 {
				t.Fatalf("%s: %d tenants built, %d not; the check would be vacuous", name, built, unbuilt)
			}

			c = NewCampaign(stats.NewRNG(uint64(servers)), servers, cluster.LeastLoaded{}, trickle)
			c.Run(Hooks{AfterWindow: func(int, []float64) {}})
			for i, s := range c.Cl.Servers {
				for _, vm := range s.VMs() {
					if b, bg := isBuilt(vm); bg && !b {
						t.Fatalf("%s, AfterWindow: tenant %s on server %d not built", name, vm.ID, i)
					}
				}
			}

			q := NewCampaign(stats.NewRNG(uint64(servers)), servers, cluster.Quasar{}, trickle)
			for i, s := range q.Cl.Servers {
				for _, vm := range s.VMs() {
					if b, bg := isBuilt(vm); bg && !b {
						t.Fatalf("%s, Quasar: tenant %s on server %d not built by NewCampaign", name, vm.ID, i)
					}
				}
			}
			if !trickle {
				continue
			}
			seeded := servers * CampaignBackgroundVMs
			clear(everProbed)
			q.Run(Hooks{AfterTick: func(sim.Tick, []fleet.Event) {
				for i, p := range q.probed {
					everProbed[i] = everProbed[i] || p
				}
			}})
			unbuilt = 0
			for i, s := range q.Cl.Servers {
				for _, vm := range s.VMs() {
					tn, ok := vm.App.(*tenant)
					switch {
					case !ok || tn.k < seeded:
						continue
					case tn.app != nil && !everProbed[i]:
						t.Fatalf("%s, Quasar: churned tenant %s built on server %d, which no wave probed", name, vm.ID, i)
					case tn.app == nil:
						unbuilt++
					}
				}
			}
			if unbuilt == 0 {
				t.Fatalf("%s, Quasar: no churned tenant left unbuilt; the check would be vacuous", name)
			}
		}
	}
}

// TestCampaignSeedingAllocs pins NewCampaign's allocations at 256 servers
// under LeastLoaded, per background tenant. Measured 0.048 (61 in all, 63
// under -race): some 60 objects per campaign, nothing per server or per
// tenant. The bound is 0.05, 64 objects in all, so one allocation more per
// server (256) fails it.
func TestCampaignSeedingAllocs(t *testing.T) {
	const servers = 256
	allocs := testing.AllocsPerRun(5, func() {
		NewCampaign(stats.NewRNG(42), servers, cluster.LeastLoaded{}, false)
	})
	if per := allocs / (servers * CampaignBackgroundVMs); per > 0.05 {
		t.Fatalf("NewCampaign allocates %.3f objects per background tenant (%v in all), want at most 0.05", per, allocs)
	}
}
