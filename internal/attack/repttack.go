package attack

import (
	"fmt"
	"strconv"
	"strings"

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
	VMs        int     // fleet VM population after the last probe window
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
	// and the servers whose attached monitors alarmed on it (the advance's
	// fleet.Events, in server order). With Due nil that is after every
	// tick. With Due set an advance runs up to Due's horizon, or the
	// window's end if sooner, and ends early after a tick on which a
	// monitor alarmed (fleet.Engine.Advance); AfterTick must then do
	// nothing at a tick with no alarm and nothing due, which is what makes
	// the skipped calls safe to skip. With AfterTick nil a probe window is
	// one barrier. The Outcome is the same either way.
	AfterTick func(t sim.Tick, events []fleet.Event)
	// Due, when set with AfterTick, returns the first tick at or after t
	// at which AfterTick must run even if no monitor alarms — a
	// defender's next cadence edge.
	Due func(t sim.Tick) sim.Tick
	// AfterWindow runs after each probe window with the per-server
	// accumulated probe scores (CampaignProbeWindow samples of the victim
	// class's top-two uncore pressure, noise included). Windows are
	// numbered from -WarmupWindows; the first wave's window is 0. Setting
	// it makes every host scored, at full cost: without it a window scores
	// only the hosts its wave's senders landed on, the only scores the
	// attacker reads.
	AfterWindow func(window int, scores []float64)
}

// Campaign is one fleet-scale co-location attack in flight: the cluster
// under the scheduler being evaluated, its sharded tick engine, the seeded
// victims, and the attacker's running tallies. A probe window scores a host
// only when someone reads its score: the hosts the wave's senders landed
// on, or every host when Hooks.AfterWindow is set.
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
	probed  []bool // probed[i]: this wave placed a sender on server i
	readAll bool   // the window's scores go to Hooks.AfterWindow
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
	// i·CampaignBackgroundVMs + j is server i's j-th; its two seeds are
	// drawn serially, in k order, exactly as one addBackground call per
	// tenant would draw them, and only then are the servers seeded on the
	// shard pool. A per-server body places that server's tenants and writes
	// nothing but Servers[i] and live[i], so the fleet is the same at every
	// worker count. The tenants, their VMs, their ids and the live lists'
	// backing arrays are one allocation each; live[i] is capped at its
	// server's share, so a churn launch past it reallocates that list
	// alone.
	//
	// Under a scheduler that reads host demand, the first victim pick reads
	// every host at tick 0, which builds every tenant. The body makes that
	// read itself once server i is seeded, so the shard that owns the
	// server builds its tenants and fills its tick-0 plane, and the victim
	// picks find the plane filled. The pool's join orders the reads before
	// any on the campaign goroutine.
	nbg := servers * CampaignBackgroundVMs
	tenants := make([]tenant, nbg)
	for k := range tenants {
		tenants[k] = drawTenant(rng, k)
	}
	vms := make([]sim.VM, nbg)
	nameBackground(vms)
	ids := make([]string, nbg)
	c.live = make([][]string, servers)
	for i := range c.live {
		lo := i * CampaignBackgroundVMs
		c.live[i] = ids[lo : lo : lo+CampaignBackgroundVMs]
	}
	warm := cluster.ReadsHostDemand(sched)
	par.FanOutBlocks(servers, fleet.ShardWorkers(),
		func(lo int) string { return fmt.Sprintf("campaign seeding at server %d", lo) },
		func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for k := i * CampaignBackgroundVMs; k < (i+1)*CampaignBackgroundVMs; k++ {
					c.placeBackground(i, &vms[k], &tenants[k])
				}
				if warm {
					c.Cl.Servers[i].HostDemand(0, sim.EveryResource)
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
	c.probed = make([]bool, servers)
	c.monitor = func(w *fleet.World) {
		// Per-sample sensor noise is drawn on every host, read or not, one
		// value per tick, so a host's stream is where it would be when a
		// later wave lands a sender there.
		if !c.readAll && !c.probed[w.Index] {
			for t := w.Tick; t <= w.Last; t++ {
				w.RNG.Uint64() // the draw Float64 makes below
			}
			return
		}
		score := c.scores[w.Index]
		for t := w.Tick; t <= w.Last; t++ {
			noise := (w.RNG.Float64() - 0.5) * 4
			p := w.Server.ObservedPressure(nil, c.r1, t) +
				w.Server.ObservedPressure(nil, c.r2, t)
			p += noise
			score += p
		}
		c.scores[w.Index] = score
	}
	c.idx = make(map[*sim.Server]int, servers)
	for i, s := range c.Cl.Servers {
		c.idx[s] = i
	}
	c.probeSpec = workload.Spec{Label: "probe:sender", Class: "probe"} // zero demand
	c.candSeen = map[int]bool{}
	return c
}

// nameBackground names vms[k] "bg-k" for every k, carving the ids from one
// string.
func nameBackground(vms []sim.VM) {
	var all strings.Builder
	var digits [20]byte
	all.Grow(len(vms) * (len("bg-") + len(strconv.Itoa(len(vms)))))
	for k := range vms {
		all.WriteString("bg-")
		all.Write(strconv.AppendInt(digits[:0], int64(k), 10))
	}
	// "bg-k" is one byte longer from each power of ten on.
	ids, off, n, wider := all.String(), 0, len("bg-0"), 10
	for k := range vms {
		if k == wider {
			n, wider = n+1, wider*10
		}
		vms[k].ID = ids[off : off+n]
		off += n
	}
}

// addBackground launches the next background tenant VM directly on server
// i, drawing its seeds from the campaign's RNG.
func (c *Campaign) addBackground(i int) {
	t := drawTenant(c.rng, c.nextBG)
	c.nextBG++
	c.placeBackground(i, &sim.VM{ID: "bg-" + strconv.Itoa(t.k)}, &t)
}

// placeBackground places background tenant t on server i as vm, which
// carries the tenant's id. It touches only Servers[i] and live[i], so
// NewCampaign runs it for different servers concurrently.
func (c *Campaign) placeBackground(i int, vm *sim.VM, t *tenant) {
	vm.VCPUs, vm.App = 1+t.k%3, t
	if err := c.Cl.Servers[i].Place(vm); err != nil {
		return // host full: the tenant's launch fails, as in production
	}
	c.live[i] = append(c.live[i], vm.ID)
}

// tenant is background tenant k's workload. Its spec is built on the first
// read of its demand, so a campaign builds only the tenants someone reads:
// under a contention-oblivious scheduler with no AfterWindow, those on the
// hosts its senders probe. Nothing but the build consumes the spec's
// stream, which is seeded by specSeed (the draw rng.Split() makes), so the
// spec is the same bits whenever, and on whichever goroutine, it is built.
// A tenant is read only by the goroutine that owns its server during an
// advance, or by the campaign's goroutine between advances, so the build
// needs no lock (the single-flow argument of workload.App's memo).
type tenant struct {
	app      *workload.App // nil until the first read
	k        int
	specSeed uint64
	seed     uint64
}

// drawTenant draws tenant k's seeds from rng: its spec stream's seed, then
// its noise seed.
func drawTenant(rng *stats.RNG, k int) tenant {
	specSeed := rng.Uint64()
	return tenant{k: k, specSeed: specSeed, seed: rng.Uint64()}
}

// backgroundLoad is every background tenant's load pattern, boxed in its
// interface once rather than at each build.
var backgroundLoad workload.LoadPattern = workload.Constant{Level: campaignBackgroundLoad}

// built returns the tenant's App, building it on the first call. It is
// small enough to inline into every demand read; the build is out of line.
func (t *tenant) built() *workload.App {
	if t.app == nil {
		t.build()
	}
	return t.app
}

// build builds the tenant's App. The workload classes are taken in
// rotation by tenant number; calling each constructor directly keeps the
// spec stream on the stack.
func (t *tenant) build() {
	rng := stats.NewRNG(t.specSeed)
	var spec workload.Spec
	switch t.k % 4 {
	case 0:
		spec = workload.Memcached(rng, t.k)
	case 1:
		spec = workload.Hadoop(rng, t.k)
	case 2:
		spec = workload.Spark(rng, t.k)
	default:
		spec = workload.Webserver(rng, t.k)
	}
	t.app = workload.NewApp(spec, backgroundLoad, t.seed)
}

// Demand implements sim.Demander.
func (t *tenant) Demand(at sim.Tick) sim.Vector { return t.built().Demand(at) }

// DemandInto implements sim.Demander.
func (t *tenant) DemandInto(at sim.Tick, out *sim.Vector, need sim.ResourceSet) {
	t.built().DemandInto(at, out, need)
}

// Sensitivity implements sim.Demander.
func (t *tenant) Sensitivity() sim.Vector { return t.built().Sensitivity() }

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
// which scores the probed hosts (every host when AfterWindow is set), then
// AfterWindow sees the scores. Each advance asks for the rest of the
// window when no AfterTick hook can act between its ticks — one barrier,
// each server's 16 samples back to back — and otherwise for one tick, or
// with Due set for the ticks up to the defender's next due tick; an
// attached monitor's alarm may end it sooner (Engine.Advance).
func (c *Campaign) window(number int, hooks Hooks) {
	clear(c.scores)
	c.readAll = hooks.AfterWindow != nil
	for end := c.T + CampaignProbeWindow; c.T < end; {
		upTo := end - 1
		if hooks.AfterTick != nil {
			upTo = c.T
			if hooks.Due != nil {
				upTo = min(hooks.Due(c.T), end-1)
			}
		}
		alarms, ticks := c.Engine.Advance(c.T, int(upTo-c.T)+1, c.monitor)
		c.T += sim.Tick(ticks - 1) // the hook sees T at the tick it follows
		if hooks.AfterTick != nil {
			hooks.AfterTick(c.T, alarms)
		}
		c.T++
	}
	// The fleet's population after the window: nothing inside one places or
	// removes a VM (a defender's migration keeps the count).
	c.Out.VMs = 0
	for _, s := range c.Cl.Servers {
		c.Out.VMs += s.VMCount()
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

		// Probe window: the whole fleet ticks on the sharded engine, and
		// the hosts judged below are scored.
		clear(c.probed)
		for _, rec := range placed {
			c.probed[c.idx[rec.host]] = true
		}
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
