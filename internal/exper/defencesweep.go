package exper

import (
	"fmt"
	"strings"
	"sync/atomic"

	"bolt/internal/attack"
	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/defence"
	"bolt/internal/fleet"
	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/trace"
	"bolt/internal/workload"
)

// defencePolicies overrides which placement policies the defencesweep
// experiment evaluates (the boltbench -defence knob), as a comma-separated
// list. Empty runs the full ladder. Process-global configuration read once
// per run, like the -fleet knob: output is byte-identical across runs at
// any fixed value, but different values are different experiments.
var defencePolicies atomic.Value // string

// SetDefencePolicies fixes the defencesweep policy list (comma-separated
// policy names); "" restores the default ladder.
func SetDefencePolicies(csv string) { defencePolicies.Store(csv) }

// DefencePolicies returns the configured policy list.
func DefencePolicies() []string {
	if v, _ := defencePolicies.Load().(string); v != "" {
		parts := strings.Split(v, ",")
		out := parts[:0]
		for _, p := range parts {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	return []string{"none", "pssf", "bandit-eps", "bandit-ucb", "mtd"}
}

const (
	// defenceDetectIters bounds the attacker's follow-up detection episodes
	// (per candidate host) once co-residency is established. Six iterations
	// is past the paper's median-to-detection on a quiet host, so a miss at
	// six is a defence effect, not an unlucky early stop.
	defenceDetectIters = 6
	// defenceMTDPeriod is the moving-target cadence in the sweep: half a
	// probe window, so a sender's 16-tick score averages over at most 8
	// ticks of true co-residency — enough to poison the attacker's judgment
	// with stale candidates.
	defenceMTDPeriod = attack.CampaignProbeWindow / 2
)

// defenceCell is one (fleet size, policy) outcome of the sweep.
type defenceCell struct {
	out attack.Outcome

	moves  int // MTD re-placements (the defender's cost)
	alarms int // monitor alarm edges observed during the campaign

	detEpisodes int // follow-up detection episodes the attacker ran
	detCorrect  int // episodes that labelled the victim's workload correctly
	detUnknown  int // episodes that degraded to core.UnknownLabel
}

// DefenceSweep runs the Repttack-style co-location campaign of the fleet
// experiment against the secure placement policies, at fleet scale:
//
//   - none        — the affinity scheduler, undefended (the baseline the
//     fleet experiment shows losing: co-residency precision 1.00);
//   - pssf        — previously-selected-servers-first group pinning: the
//     attacker tenant is structurally confined away from the victim's group;
//   - bandit-eps / bandit-ucb — multi-armed-bandit allocation whose reward
//     is the leaked-signature mass the detection plane measures per host,
//     so new placements steer away from exactly the hosts worth probing;
//   - mtd         — the vulnerable affinity scheduler plus a moving-target
//     policy re-placing victims on a sub-window cadence and on per-host
//     monitor alarms, so established co-residency stops paying off.
//
// Each cell reports the attacker's whole kill chain: co-residency rate and
// candidate precision (the campaign), then the follow-up Bolt detection on
// candidate hosts graded with the PR 5 confidence machinery — accuracy,
// and how much of the defence's effect lands as graceful degradation to
// "unknown" rather than confident mislabels. Attack cost is probe ticks
// and launch attempts; defender cost is migrations.
func DefenceSweep(seed uint64) *Report {
	rep := newReport("defencesweep", "Attacker vs defender: secure placement against scheduler-guided co-location")
	rng := stats.NewRNG(seed ^ 0xdef5eed)
	det := core.TrainCached(workload.TrainingSpecs(seed), core.Config{})

	policies := DefencePolicies()
	sizes := fleetSizes()
	type cellKey struct {
		size   int
		policy string
	}
	cells := make([]cellKey, 0, len(sizes)*len(policies))
	for _, size := range sizes {
		for _, p := range policies {
			cells = append(cells, cellKey{size, p})
		}
	}

	// Cells are independent campaigns on private clusters, so they fan out
	// on the episode pool: one RNG stream per cell split serially up front,
	// results merged in sweep order (the -epworkers parity contract).
	rngs := rng.SplitN(len(cells))
	results := make([]*defenceCell, len(cells))
	forEachEpisode(len(cells), func(i int) {
		results[i] = runDefenceCell(rngs[i], det, cells[i].size, cells[i].policy)
	})

	tb := trace.NewTable("Attacker vs defender: fleet size × placement policy (trickle launch strategy)",
		"Servers", "Policy", "Co-res P", "Candidates", "Precision", "Probe ticks", "Moves", "Det acc", "Unknown")
	for i, c := range cells {
		r := results[i]
		acc, unk := 0.0, 0.0
		if r.detEpisodes > 0 {
			acc = float64(r.detCorrect) / float64(r.detEpisodes)
			unk = float64(r.detUnknown) / float64(r.detEpisodes)
		}
		tb.Add(
			fmt.Sprintf("%d", c.size),
			c.policy,
			fmt.Sprintf("%.2f", r.out.CoResP),
			fmt.Sprintf("%d", r.out.Candidates),
			fmt.Sprintf("%.2f", r.out.Precision),
			fmt.Sprintf("%d", r.out.ProbeTicks),
			fmt.Sprintf("%d", r.moves),
			fmt.Sprintf("%.2f", acc),
			fmt.Sprintf("%.2f", unk),
		)
		key := fmt.Sprintf("%s_%d", c.policy, c.size)
		rep.Metrics["coresidency_p_"+key] = r.out.CoResP
		rep.Metrics["precision_"+key] = r.out.Precision
		rep.Metrics["probe_ticks_"+key] = float64(r.out.ProbeTicks)
		rep.Metrics["launches_"+key] = float64(r.out.Launches)
		rep.Metrics["moves_"+key] = float64(r.moves)
		rep.Metrics["det_episodes_"+key] = float64(r.detEpisodes)
		rep.Metrics["det_accuracy_"+key] = acc
		rep.Metrics["det_unknown_"+key] = unk
	}
	rep.Tables = append(rep.Tables, tb)
	rep.Notes = append(rep.Notes,
		"the kill chain is scored end to end: co-residency precision is the campaign's placement success; det acc is the follow-up Bolt identification on candidate hosts, graded with confidence-floor degradation to \"unknown\"",
		"pssf and the bandits defeat the campaign at placement time (no candidates to escalate on); mtd lets placement succeed and then rots it — stale candidates and mid-episode migrations surface as precision loss and unknowns, at the cost of live migrations",
		"cells fan out on the episode pool and each campaign ticks on the sharded fleet engine; the report is byte-identical at every -epworkers and -shardworkers level")
	return rep
}

// runDefenceCell runs one policy's full attacker-vs-defender cell: the
// trickle-strategy campaign (the stronger launcher in the fleet sweep)
// against the policy's scheduler and hooks, then the attacker's follow-up
// detection on whatever candidate hosts survived.
func runDefenceCell(rng *stats.RNG, det *core.Detector, servers int, policy string) *defenceCell {
	res := &defenceCell{}

	// Per-cell stream order is fixed: scheduler stream, campaign stream,
	// detection stream. Policies that need no scheduler stream still take
	// one, so every policy's campaign sees the same campaign stream.
	schedRNG := rng.Split()
	campRNG := rng.Split()
	detRNG := rng.Split()

	var sched cluster.Scheduler
	var bandit *cluster.Bandit
	switch policy {
	case "pssf":
		sched = cluster.NewPSSF(0)
	case "bandit-eps":
		bandit = cluster.NewBandit(cluster.EpsilonGreedy, schedRNG)
		sched = bandit
	case "bandit-ucb":
		bandit = cluster.NewBandit(cluster.UCB, schedRNG)
		sched = bandit
	default: // "none" and "mtd" place with the vulnerable affinity scheduler
		sched = cluster.NewAffinity(cluster.LeastLoaded{})
	}

	c := attack.NewCampaign(campRNG, servers, sched, true)

	var hooks attack.Hooks
	var mt *defence.MovingTarget
	if bandit != nil {
		// The detection plane's per-host leak signal doubles as the bandit's
		// reward. Two warm-up windows let the allocator see which hosts leak
		// before the first sender placement, as a provider that monitors
		// continuously would.
		hooks.WarmupWindows = 2
		hooks.AfterWindow = func(_ int, scores []float64) {
			for i, sc := range scores {
				bandit.Observe(i, sc/attack.CampaignProbeWindow/(2*attack.CampaignProbeThreshold))
			}
		}
	}
	if policy == "mtd" {
		mt = defence.NewMovingTarget(defenceMTDPeriod)
		idx := make(map[*sim.Server]int, servers)
		for i, s := range c.Cl.Servers {
			idx[s] = i
		}
		newMonitor := func() *defence.Monitor {
			return defence.NewMonitor(&defence.CPUThreshold{Threshold: 70, Sustain: attack.CampaignProbeWindow})
		}
		// Victims are the protected VMs: their hosts carry monitors, and the
		// monitor follows the victim when it moves.
		rehome := func(src, dst *sim.Server) {
			if src != nil && c.Engine.Monitor(idx[src]) != nil && !c.HostHasVictim(src) {
				c.Engine.SetMonitor(idx[src], nil)
			}
			if dst != nil && c.Engine.Monitor(idx[dst]) == nil {
				c.Engine.SetMonitor(idx[dst], newMonitor())
			}
		}
		for _, id := range c.Victims {
			rehome(nil, c.Cl.HostOf(id))
			mt.Track(id, 0)
		}
		moveVictim := func(id string, t sim.Tick) {
			src := c.Cl.HostOf(id)
			dst, err := c.Cl.Migrate(id, t)
			if err != nil {
				return // full cluster: the clock stays due, retried next tick
			}
			mt.Moved(id, t)
			rehome(src, dst)
		}
		// The hook acts only on an alarm or at a cadence edge, so the
		// campaign may advance straight to the next edge (hooks.Due) and
		// stop early at an alarm, instead of calling it every tick.
		hooks.Due = mt.NextDue
		hooks.AfterTick = func(t sim.Tick, events []fleet.Event) {
			for _, ev := range events {
				if ev.Kind != fleet.MonitorAlarm {
					continue
				}
				res.alarms++
				alarmed := c.Cl.Servers[ev.Server]
				for _, id := range c.Victims {
					if c.Cl.HostOf(id) == alarmed {
						moveVictim(id, t)
					}
				}
				if m := c.Engine.Monitor(ev.Server); m != nil {
					m.Reset()
				}
			}
			for _, id := range c.Victims {
				if mt.Due(id, t) {
					moveVictim(id, t)
				}
			}
		}
	}

	res.out = c.Run(hooks)

	// Follow-up detection: the attacker escalates to the full Bolt pipeline
	// on each candidate host, exactly as the coresidency experiment does on
	// a single server — here against whatever the defence left standing.
	// Under mtd the cadence keeps running between probing iterations, so an
	// episode's later ramps may profile a host the victim already left.
	t0 := c.T
	for _, hi := range c.CandidateHosts {
		host := c.Cl.Servers[hi]
		// The attacker recycles its probe senders on this host into the
		// full adversary VM (the senders did their job; the adversary needs
		// their capacity and more).
		var senders []string
		for _, vm := range host.VMs() {
			if strings.HasPrefix(vm.ID, "sender-") {
				senders = append(senders, vm.ID)
			}
		}
		for _, id := range senders {
			host.Remove(id)
		}
		// Launch the largest adversary VM the host accepts (Fig. 10's size
		// sensitivity: smaller adversaries profile slower but still work).
		var adv *probe.Adversary
		for _, vcpus := range []int{4, 2, 1} {
			a := probe.NewAdversary(fmt.Sprintf("bolt-%d", hi), vcpus, probe.Config{}, detRNG.Split())
			if err := host.Place(a.VM); err == nil {
				adv = a
				break
			}
		}
		if adv == nil {
			continue // no headroom even so: escalation fails on this host
		}
		hadVictim := c.HostHasVictim(host)
		ep := det.NewEpisode(host, adv)
		var last *mining.Result
		for it := 0; it < defenceDetectIters; it++ {
			last = ep.Step(t0)
			if mt != nil {
				vt := t0 + ep.Ticks
				for _, id := range c.Victims {
					if mt.Due(id, vt) {
						if _, err := c.Cl.Migrate(id, vt); err == nil {
							mt.Moved(id, vt)
						}
					}
				}
			}
		}
		// Grade with the confidence machinery, then score the attacker's
		// actionable claim. On a ~6-resident fleet host the single-victim
		// label lands in the victim's confusion neighbourhood (a database
		// engine, not necessarily *the* engine — the confusion experiment's
		// finding), so the episode confirms the attack when any surfaced
		// label is a database workload; the attack succeeded only when that
		// confirmation was true — the victim really was co-resident when
		// the attacker escalated. Stale candidates (mtd) and phantom
		// candidates (pssf) fail here even when the labelling is confident.
		label, _, unknown := ep.Grade(last)
		res.detEpisodes++
		dbSeen := !unknown && isDatabaseLabel(label)
		if !dbSeen {
			for _, cand := range ep.Candidates(3) {
				if cand.Confident() && isDatabaseLabel(cand.Best().Label) {
					dbSeen = true
					break
				}
			}
		}
		switch {
		case unknown:
			res.detUnknown++
		case dbSeen && hadVictim:
			res.detCorrect++
		}
		host.Remove(adv.VM.ID)
		t0 += ep.Ticks
	}
	if mt != nil {
		res.moves = mt.Moves()
	}
	return res
}

// isDatabaseLabel reports whether a detected workload label names a
// database engine — the victim's class family, and the attacker's
// confirmation signal in the sweep's scoring (see runDefenceCell).
func isDatabaseLabel(label string) bool {
	class, _, _ := strings.Cut(label, ":")
	switch class {
	case "mysql", "postgres", "mongodb", "cassandra":
		return true
	}
	return false
}
