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
// before seeding moved to the shard pool, kept verbatim as the reference.
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
		p := w.Server.ObservedPressure(nil, c.r1, w.Tick) +
			w.Server.ObservedPressure(nil, c.r2, w.Tick)
		p += (w.RNG.Float64() - 0.5) * 4
		c.scores[w.Index] += p
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
			if ga, wa := g.App.(*workload.App), w.App.(*workload.App); ga.Spec != wa.Spec {
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
