package attack

import (
	"fmt"
	"reflect"
	"testing"

	"bolt/internal/cluster"
	"bolt/internal/fleet"
	"bolt/internal/sim"
	"bolt/internal/stats"
)

// TestCampaignHooksDoNotChangeOutcome pins the two speeds of
// Campaign.window against each other: a campaign with a no-op AfterTick
// advances the fleet tick by tick, one with no AfterTick advances a whole
// probe window per barrier, and both must produce the same Outcome, the
// same candidate hosts and ==-identical per-window scores. At 256 servers a
// window is 4096 server-ticks, above the engine's fan-out grain, so the
// window path is compared while really sharded.
func TestCampaignHooksDoNotChangeOutcome(t *testing.T) {
	const servers = 256
	type result struct {
		out     Outcome
		hosts   []int
		windows [][]float64
	}
	run := func(mk func() cluster.Scheduler, trickle bool, afterTick func(sim.Tick, []fleet.Event)) result {
		c := NewCampaign(stats.NewRNG(42), servers, mk(), trickle)
		var r result
		r.out = c.Run(Hooks{
			WarmupWindows: 1,
			AfterTick:     afterTick,
			AfterWindow: func(_ int, scores []float64) {
				r.windows = append(r.windows, append([]float64(nil), scores...))
			},
		})
		r.hosts = c.CandidateHosts
		return r
	}
	for _, mk := range []func() cluster.Scheduler{
		func() cluster.Scheduler { return cluster.LeastLoaded{} },
		func() cluster.Scheduler { return cluster.Quasar{} },
		func() cluster.Scheduler { return cluster.NewAffinity(cluster.LeastLoaded{}) },
	} {
		for _, trickle := range []bool{false, true} {
			name := fmt.Sprintf("%s trickle=%v", mk().Name(), trickle)
			ticks := 0
			byTick := run(mk, trickle, func(sim.Tick, []fleet.Event) { ticks++ })
			byWindow := run(mk, trickle, nil)

			if want := len(byTick.windows) * CampaignProbeWindow; ticks != want {
				t.Fatalf("%s: AfterTick ran %d times over %d windows, want %d", name, ticks, len(byTick.windows), want)
			}
			if byWindow.out != byTick.out {
				t.Fatalf("%s: Outcome by window %+v, tick by tick %+v", name, byWindow.out, byTick.out)
			}
			if !reflect.DeepEqual(byWindow.hosts, byTick.hosts) {
				t.Fatalf("%s: candidate hosts by window %v, tick by tick %v", name, byWindow.hosts, byTick.hosts)
			}
			if len(byWindow.windows) != len(byTick.windows) {
				t.Fatalf("%s: %d windows by window, %d tick by tick", name, len(byWindow.windows), len(byTick.windows))
			}
			for w := range byTick.windows {
				for i := range byTick.windows[w] {
					if byWindow.windows[w][i] != byTick.windows[w][i] {
						t.Fatalf("%s: window %d server %d scored %v by window, %v tick by tick",
							name, w, i, byWindow.windows[w][i], byTick.windows[w][i])
					}
				}
			}
		}
	}
}
