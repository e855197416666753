package attack

import (
	"fmt"

	"bolt/internal/cluster"
	"bolt/internal/fleet"
	"bolt/internal/par"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// This file implements the Repttack-style scheduler-guided co-location
// campaign at fleet scale (previously inlined in internal/exper's fleet
// experiment; extracted so the defender-co-evolution sweep can run the
// same attacker against secure placement policies). The attack follows
// Repttack's observation that placement policy, not placement luck,
// decides co-residency: the adversary launches probe VMs either in one
// bulk wave or one-at-a-time (trickling, deleting misses between waves),
// and under an affinity-honouring scheduler the senders carry an affinity
// request naming the victim's deployment label, steering the scheduler
// itself onto the victim's hosts.

const (
	// CampaignBackgroundVMs is the number of background tenant VMs seeded
	// per server (~5 VMs/server matches the ~20k-VM datacenter at 4096
	// servers).
	CampaignBackgroundVMs = 5
	// campaignBackgroundLoad keeps background tenants at the low mean
	// utilisation the paper observes in production fleets — the headroom
	// that makes placement attacks (and their detection signal) possible.
	campaignBackgroundLoad = 0.35
	// campaignVictimLoad drives the victim service hard enough that its
	// signature stands out of the background on its critical resources.
	campaignVictimLoad = 0.9
	// CampaignSenders is the attacker's launch budget per campaign.
	CampaignSenders = 8
	// CampaignProbeWindow is how many fleet ticks each launch wave probes
	// before the attacker judges its senders.
	CampaignProbeWindow = 16
	// CampaignProbeThreshold is the mean two-resource pressure score above
	// which a sender declares its host victim-like. Calibrated between the
	// background-only host scores (two uncore resources at ~0.35 load) and
	// a victim host's (the victim alone adds ~0.9 × its top-two base).
	CampaignProbeThreshold = 110.0
)

// Outcome is the attacker-side scorecard of one campaign.
type Outcome struct {
	VMs        int     // fleet VM population at the end of the run
	Launches   int     // co-residency attempts (sender launches, incl. failed)
	CoResP     float64 // fraction of launches that landed co-resident with a victim
	Candidates int     // senders whose probe score crossed the threshold
	Precision  float64 // candidates that truly were co-resident at judgment time
	ProbeTicks int     // total sender-ticks spent probing
}

// Hooks lets a defender act inside the campaign's tick loop without the
// campaign knowing any policy. All hooks run on the campaign's goroutine,
// between fleet ticks — the only place cluster mutation (migration,
// placement) is legal — so a hooked campaign is exactly as deterministic
// as a bare one. The zero value (no hooks) reproduces the undefended
// campaign byte for byte.
type Hooks struct {
	// WarmupWindows probe-window-sized spans of fleet ticks run before the
	// first launch wave, giving a learning defender (a bandit's reward
	// stream, an anomaly detector's baseline) pre-attack observations.
	WarmupWindows int
	// AfterTick runs after each fleet advance with the last tick advanced
	// and the barrier-merged events (which include fleet.MonitorAlarm
	// events from any monitors attached to the campaign's engine). With
	// Due nil that is after every tick. With Due set an advance runs up to
	// Due's horizon, or the window's end if sooner, and ends early after a
	// tick on which a monitor alarmed (fleet.Engine.Advance); AfterTick
	// must then do nothing at a tick with no alarm and nothing due, which
	// is what makes the skipped calls safe to skip. With AfterTick nil a
	// probe window is one barrier. The Outcome is the same either way.
	AfterTick func(t sim.Tick, events []fleet.Event)
	// Due, when set with AfterTick, returns the first tick at or after t
	// at which AfterTick must run even if no monitor alarms — a
	// defender's next cadence edge.
	Due func(t sim.Tick) sim.Tick
	// AfterWindow runs after each probe window with the per-server
	// accumulated probe scores (CampaignProbeWindow samples of the victim
	// class's top-two uncore pressure, noise included). Windows are
	// numbered from -WarmupWindows; the first wave's window is 0.
	AfterWindow func(window int, scores []float64)
}

// Campaign is one fleet-scale co-location attack in flight: the cluster
// under the scheduler being evaluated, its sharded tick engine, the seeded
// victims, and the attacker's running tallies.
type Campaign struct {
	Cl         *cluster.Cluster
	Engine     *fleet.Engine
	Victims    []string      // victim VM ids
	VictimSpec workload.Spec // the victim service's workload spec
	T          sim.Tick      // fleet time consumed so far

	// Out is the attacker scorecard, valid after Run.
	Out Outcome
	// CandidateHosts lists the distinct servers (by index) the attacker
	// judged victim-like, in judgment order — the hosts it would escalate
	// to full Bolt detection on. Valid after Run.
	CandidateHosts []int

	rng     *stats.RNG
	aff     *cluster.Affinity
	trickle bool
	servers int

	live   [][]string // per-server live background VM ids
	nextBG int

	scores  []float64
	r1, r2  sim.Resource
	idx     map[*sim.Server]int
	monitor fleet.TickFunc

	probeSpec   workload.Spec
	nextSender  int
	liveSenders int
	launches    int
	coRes       int
	trueCands   int
	candSeen    map[int]bool
	lastStats   fleet.Stats
}

// NewCampaign builds a fleet of the given size under the scheduler, seeds
// background tenants and victims, and prepares the sharded tick engine.
// All randomness flows from rng in a fixed order, so a campaign is a pure
// function of (rng state, servers, scheduler, trickle).
func NewCampaign(rng *stats.RNG, servers int, sched cluster.Scheduler, trickle bool) *Campaign {
	c := &Campaign{
		rng:     rng,
		trickle: trickle,
		servers: servers,
	}
	c.Cl = cluster.New(servers, sim.ServerConfig{}, sched)
	c.aff, _ = sched.(*cluster.Affinity)

	// Background tenants predate the attack, so they are placed directly
	// rather than through the scheduler under test. Tenant k =
	// i·CampaignBackgroundVMs + j is server i's j-th; its spec stream and
	// noise seed are drawn serially, in k order, exactly as one
	// addBackground call per tenant would draw them, and only then are the
	// servers seeded on the shard pool. A per-server body builds and places
	// that server's tenants and writes nothing but Servers[i] and live[i],
	// so the fleet is the same at every worker count.
	nbg := servers * CampaignBackgroundVMs
	rngs := make([]*stats.RNG, nbg)
	seeds := make([]uint64, nbg)
	for k := range rngs {
		rngs[k] = rng.Split()
		seeds[k] = rng.Uint64()
	}
	c.live = make([][]string, servers)
	par.FanOutBlocks(servers, fleet.ShardWorkers(),
		func(lo int) string { return fmt.Sprintf("campaign seeding at server %d", lo) },
		func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for k := i * CampaignBackgroundVMs; k < (i+1)*CampaignBackgroundVMs; k++ {
					c.placeBackground(i, k, rngs[k], seeds[k])
				}
			}
		})
	c.nextBG = nbg

	// Victims: one labelled SQL service instance per 64 servers, placed
	// through the scheduler (the victim is an ordinary tenant).
	c.VictimSpec = workload.SQLDatabase(rng.Split(), 2) // mysql:olap — disk-dominant signature
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

	// The probe signal: the victim class's two strongest uncore resources
	// (core resources are invisible without sharing a physical core).
	c.r1, c.r2 = victimUncoreSignature(c.VictimSpec.Base)

	c.Engine = fleet.NewEngine(c.Cl, rng.Split())
	c.scores = make([]float64, servers)
	c.monitor = func(w *fleet.World) {
		p := w.Server.ObservedPressure(nil, c.r1, w.Tick) +
			w.Server.ObservedPressure(nil, c.r2, w.Tick)
		p += (w.RNG.Float64() - 0.5) * 4 // per-sample sensor noise
		c.scores[w.Index] += p
	}
	c.idx = make(map[*sim.Server]int, servers)
	for i, s := range c.Cl.Servers {
		c.idx[s] = i
	}
	c.probeSpec = workload.Spec{Label: "probe:sender", Class: "probe"} // zero demand
	c.candSeen = map[int]bool{}
	return c
}

// backgroundSpecs are the background tenants' workload classes, taken in
// rotation by tenant number.
var backgroundSpecs = [...]func(*stats.RNG, int) workload.Spec{
	workload.Memcached, workload.Hadoop, workload.Spark, workload.Webserver,
}

// addBackground launches the next background tenant VM directly on server
// i, drawing its spec stream and noise seed from the campaign's RNG.
func (c *Campaign) addBackground(i int) {
	k := c.nextBG
	c.nextBG++
	rng := c.rng.Split()
	c.placeBackground(i, k, rng, c.rng.Uint64())
}

// placeBackground builds background tenant k from its pre-drawn spec stream
// and noise seed and places it on server i. It touches only Servers[i] and
// live[i], so NewCampaign runs it for different servers concurrently.
func (c *Campaign) placeBackground(i, k int, rng *stats.RNG, seed uint64) {
	spec := backgroundSpecs[k%len(backgroundSpecs)](rng, k)
	app := workload.NewApp(spec, workload.Constant{Level: campaignBackgroundLoad}, seed)
	id := fmt.Sprintf("bg-%d", k)
	vm := &sim.VM{ID: id, VCPUs: 1 + k%3, App: app}
	if err := c.Cl.Servers[i].Place(vm); err != nil {
		return // host full: the tenant's launch fails, as in production
	}
	c.live[i] = append(c.live[i], id)
}

// HostHasVictim reports whether any victim currently lives on s — the
// ground truth the attacker is scored against (and never shown).
func (c *Campaign) HostHasVictim(s *sim.Server) bool {
	for _, vid := range c.Victims {
		if c.Cl.HostOf(vid) == s {
			return true
		}
	}
	return false
}

// window runs one probe-window span of fleet ticks: scores reset, the
// whole fleet advances CampaignProbeWindow ticks under the probe monitor,
// then AfterWindow sees the scores. Each advance asks for the rest of the
// window when no AfterTick hook can act between its ticks — one barrier,
// each server's 16 samples back to back — and otherwise for one tick, or
// with Due set for the ticks up to the defender's next due tick; an
// attached monitor's alarm may end it sooner (Engine.Advance).
func (c *Campaign) window(number int, hooks Hooks) {
	for i := range c.scores {
		c.scores[i] = 0
	}
	for end := c.T + CampaignProbeWindow; c.T < end; {
		upTo := end - 1
		if hooks.AfterTick != nil {
			upTo = c.T
			if hooks.Due != nil {
				upTo = min(hooks.Due(c.T), end-1)
			}
		}
		events, ticks, st := c.Engine.Advance(c.T, int(upTo-c.T)+1, c.monitor)
		c.lastStats = st
		c.T += sim.Tick(ticks - 1) // the hook sees T at the tick it follows
		if hooks.AfterTick != nil {
			hooks.AfterTick(c.T, events)
		}
		c.T++
	}
	if hooks.AfterWindow != nil {
		hooks.AfterWindow(number, c.scores)
	}
}

// Run executes the campaign: optional defender warm-up windows, then the
// launch waves (one bulk wave, or CampaignSenders trickle waves with
// background churn in between), each followed by a probe window and the
// attacker's candidate judgment. With zero-valued hooks this is exactly
// the undefended campaign of the fleet experiment.
func (c *Campaign) Run(hooks Hooks) Outcome {
	for wu := 0; wu < hooks.WarmupWindows; wu++ {
		c.window(wu-hooks.WarmupWindows, hooks)
	}

	waves, perWave := 1, CampaignSenders
	if c.trickle {
		waves, perWave = CampaignSenders, 1
	}

	for wave := 0; wave < waves; wave++ {
		if wave > 0 {
			// Background churn between waves: tenants leave and arrive,
			// shifting the free-capacity landscape a relaunch explores.
			moves := 1 + c.servers/32
			for m := 0; m < moves; m++ {
				src := c.rng.Intn(c.servers)
				if n := len(c.live[src]); n > 2 {
					c.Cl.Servers[src].Remove(c.live[src][n-1])
					c.live[src] = c.live[src][:n-1]
				}
				c.addBackground(c.rng.Intn(c.servers))
			}
		}

		// Launch this wave's senders through the scheduler under test.
		type senderRec struct {
			id   string
			host *sim.Server
		}
		var placed []senderRec
		for k := 0; k < perWave; k++ {
			id := fmt.Sprintf("sender-%d", c.nextSender)
			c.nextSender++
			app := workload.NewApp(c.probeSpec, workload.Constant{Level: 0}, c.rng.Uint64())
			vm := &sim.VM{ID: id, VCPUs: 1, App: app}
			if c.aff != nil {
				c.aff.Want(id, "svc=db")
			}
			c.launches++
			host, err := c.Cl.Place(vm, c.T)
			if err != nil {
				continue // cluster full: a wasted launch, as in a real attack
			}
			placed = append(placed, senderRec{id, host})
			if c.HostHasVictim(host) {
				c.coRes++
			}
		}
		c.liveSenders += len(placed)

		// Probe window: the whole fleet ticks on the sharded engine.
		c.window(wave, hooks)
		c.Out.ProbeTicks += CampaignProbeWindow * c.liveSenders

		// Judge this wave's senders; trickling deletes the misses so the
		// next wave's launch budget is not squandered on known-bad hosts.
		for _, rec := range placed {
			mean := c.scores[c.idx[rec.host]] / CampaignProbeWindow
			if mean >= CampaignProbeThreshold {
				c.Out.Candidates++
				if c.HostHasVictim(rec.host) {
					c.trueCands++
				}
				if hi := c.idx[rec.host]; !c.candSeen[hi] {
					c.candSeen[hi] = true
					c.CandidateHosts = append(c.CandidateHosts, hi)
				}
			} else if c.trickle {
				rec.host.Remove(rec.id)
				c.liveSenders--
			}
		}
	}

	c.Out.VMs = c.lastStats.VMs
	c.Out.Launches = c.launches
	c.Out.CoResP = float64(c.coRes) / float64(c.launches)
	if c.Out.Candidates > 0 {
		c.Out.Precision = float64(c.trueCands) / float64(c.Out.Candidates)
	}
	return c.Out
}

// victimUncoreSignature returns the two strongest host-wide-visible
// resources of a victim profile — the signature a probe without core
// co-residency can still read.
func victimUncoreSignature(base sim.Vector) (sim.Resource, sim.Resource) {
	masked := base
	for _, r := range sim.CoreResources() {
		masked.Set(r, 0)
	}
	top := masked.TopK(2)
	return top[0], top[1]
}
