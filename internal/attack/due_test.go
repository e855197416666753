package attack

import (
	"fmt"
	"reflect"
	"testing"

	"bolt/internal/cluster"
	"bolt/internal/defence"
	"bolt/internal/fleet"
	"bolt/internal/sim"
	"bolt/internal/stats"
)

// mtdRun is what one moving-target-defended campaign leaves behind.
type mtdRun struct {
	out      Outcome
	hosts    []int       // CandidateHosts
	windows  [][]float64 // per-window probe scores
	moves    int         // successful victim migrations
	alarms   int         // monitor alarm edges acted on
	victims  []int       // each victim's final host index
	advances int         // AfterTick calls
}

// runMTD runs the trickle campaign under the affinity scheduler against a
// moving-target defender shaped like the defence sweep's: CPUThreshold
// monitors on the victims' hosts, victims migrated on an alarm and at every
// cadence edge, monitors following the victims. due selects whether the
// campaign may advance straight to the defender's next cadence edge.
func runMTD(seed uint64, servers int, threshold float64, sustain sim.Tick, due bool) mtdRun {
	c := NewCampaign(stats.NewRNG(seed), servers, cluster.NewAffinity(cluster.LeastLoaded{}), true)
	mt := defence.NewMovingTarget(CampaignProbeWindow / 2)
	idx := make(map[*sim.Server]int, servers)
	for i, s := range c.Cl.Servers {
		idx[s] = i
	}
	rehome := func(src, dst *sim.Server) {
		if src != nil && c.Engine.Monitor(idx[src]) != nil && !c.HostHasVictim(src) {
			c.Engine.SetMonitor(idx[src], nil)
		}
		if dst != nil && c.Engine.Monitor(idx[dst]) == nil {
			c.Engine.SetMonitor(idx[dst], defence.NewMonitor(&defence.CPUThreshold{Threshold: threshold, Sustain: sustain}))
		}
	}
	for _, id := range c.Victims {
		rehome(nil, c.Cl.HostOf(id))
		mt.Track(id, 0)
	}
	move := func(id string, t sim.Tick) {
		src := c.Cl.HostOf(id)
		if dst, err := c.Cl.Migrate(id, t); err == nil {
			mt.Moved(id, t)
			rehome(src, dst)
		}
	}

	var r mtdRun
	hooks := Hooks{
		AfterTick: func(t sim.Tick, alarms []fleet.Event) {
			r.advances++
			for _, ev := range alarms {
				r.alarms++
				for _, id := range c.Victims {
					if c.Cl.HostOf(id) == c.Cl.Servers[ev.Server] {
						move(id, t)
					}
				}
				if m := c.Engine.Monitor(ev.Server); m != nil {
					m.Reset()
				}
			}
			for _, id := range c.Victims {
				if mt.Due(id, t) {
					move(id, t)
				}
			}
		},
		AfterWindow: func(_ int, scores []float64) {
			r.windows = append(r.windows, append([]float64(nil), scores...))
		},
	}
	if due {
		hooks.Due = mt.NextDue
	}
	r.out = c.Run(hooks)
	r.hosts = c.CandidateHosts
	r.moves = mt.Moves()
	for _, id := range c.Victims {
		r.victims = append(r.victims, idx[c.Cl.HostOf(id)])
	}
	return r
}

// TestDueSteppingMatchesPerTick holds a campaign whose AfterTick advances
// up to the defender's next cadence edge (Hooks.Due) to the same campaign
// stepped one tick at a time: same Outcome, candidate hosts, per-window
// scores, moves, alarms and final victim hosts. The sweep's own monitors
// (70 % CPU for a whole probe window) rarely fire, so a forced variant
// (40 % for two or three ticks) makes alarm-driven moves land mid-window,
// where an advance must stop at the alarm, and streaks straddle window
// ends, where the window's end cuts an advance short first.
func TestDueSteppingMatchesPerTick(t *testing.T) {
	for _, mon := range []struct {
		name      string
		threshold float64
		sustain   sim.Tick
	}{
		{"sweep monitors", 70, CampaignProbeWindow},
		{"forced alarms", 40, 2},
		{"forced alarms across window ends", 40, 3},
	} {
		for _, servers := range []int{64, 256} {
			for seed := uint64(42); seed <= 44; seed++ {
				name := fmt.Sprintf("%s servers=%d seed=%d", mon.name, servers, seed)
				perTick := runMTD(seed, servers, mon.threshold, mon.sustain, false)
				byDue := runMTD(seed, servers, mon.threshold, mon.sustain, true)

				if perTick.moves == 0 {
					t.Fatalf("%s: the defender never moved a victim; the check would be vacuous", name)
				}
				if mon.sustain < CampaignProbeWindow && perTick.alarms == 0 {
					t.Fatalf("%s: no monitor alarmed; the forced variant would be vacuous", name)
				}
				if byDue.advances >= perTick.advances {
					t.Fatalf("%s: Due stepping made %d advances, per-tick %d; Due saved nothing", name, byDue.advances, perTick.advances)
				}
				if byDue.out != perTick.out {
					t.Fatalf("%s: Outcome with Due %+v, per tick %+v", name, byDue.out, perTick.out)
				}
				if !reflect.DeepEqual(byDue.hosts, perTick.hosts) {
					t.Fatalf("%s: candidate hosts with Due %v, per tick %v", name, byDue.hosts, perTick.hosts)
				}
				if byDue.moves != perTick.moves || byDue.alarms != perTick.alarms {
					t.Fatalf("%s: with Due %d moves and %d alarms, per tick %d and %d",
						name, byDue.moves, byDue.alarms, perTick.moves, perTick.alarms)
				}
				if !reflect.DeepEqual(byDue.victims, perTick.victims) {
					t.Fatalf("%s: final victim hosts with Due %v, per tick %v", name, byDue.victims, perTick.victims)
				}
				if !reflect.DeepEqual(byDue.windows, perTick.windows) {
					t.Fatalf("%s: per-window probe scores differ between Due and per-tick stepping", name)
				}
			}
		}
	}
}
