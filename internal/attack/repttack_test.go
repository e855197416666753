package attack

import (
	"fmt"
	"math"
	"reflect"
	"slices"
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

// perTickMonitor replaces c's probe monitor with its per-tick reference:
// the body the monitor had before it looped over its span itself, called
// once per tick with a one-tick span. It draws the tick's noise, then
// scores the host only when someone reads it.
func perTickMonitor(c *Campaign) {
	tick := func(w *fleet.World) {
		noise := (w.RNG.Float64() - 0.5) * 4
		if !c.readAll && !c.probed[w.Index] {
			return
		}
		p := w.Server.ObservedPressure(nil, c.r1, w.Tick) +
			w.Server.ObservedPressure(nil, c.r2, w.Tick)
		p += noise
		c.scores[w.Index] += p
	}
	c.monitor = func(w *fleet.World) {
		one := *w
		for t := w.Tick; t <= w.Last; t++ {
			one.Tick, one.Last = t, t
			tick(&one)
		}
	}
}

// nextDraws returns every server's next draw from its fleet stream, taken
// through one more single-tick advance.
func nextDraws(c *Campaign) []uint64 {
	draws := make([]uint64, c.servers)
	c.Engine.Advance(c.T, 1, func(w *fleet.World) { draws[w.Index] = w.RNG.Uint64() })
	return draws
}

// TestCampaignSpanMonitorMatchesPerTick holds the campaign's span monitor
// to its per-tick reference (perTickMonitor) on the two shapes that read
// differently: a trickle campaign under LeastLoaded with no reader, whose
// windows score only the probed hosts and only draw on the rest, and a
// bandit-style run, whose AfterWindow makes every host read. Both must
// reach the same Outcome, candidate hosts and per-window scores, bit for
// bit, and leave every host's noise stream at the same position.
func TestCampaignSpanMonitorMatchesPerTick(t *testing.T) {
	const servers = 256
	type run struct {
		out    Outcome
		hosts  []int
		log    *scoreLog
		bandit [][]float64
		draws  []uint64
	}
	do := func(trickle, bandit, perTick bool) run {
		c := NewCampaign(stats.NewRNG(4242), servers, cluster.LeastLoaded{}, trickle)
		if perTick {
			perTickMonitor(c)
		}
		var r run
		hooks := Hooks{}
		windows := 1
		if trickle {
			windows = CampaignSenders
		}
		if bandit {
			hooks.WarmupWindows = 2
			windows += 2
			hooks.AfterWindow = func(_ int, scores []float64) {
				r.bandit = append(r.bandit, slices.Clone(scores))
			}
		}
		r.log = recordScores(c, windows)
		r.out = c.Run(hooks)
		r.hosts = c.CandidateHosts
		r.draws = nextDraws(c)
		return r
	}
	for _, tc := range []struct {
		name            string
		trickle, bandit bool
	}{
		{"trickle", true, false},
		{"bandit", true, true},
	} {
		got, want := do(tc.trickle, tc.bandit, false), do(tc.trickle, tc.bandit, true)
		if got.out != want.out {
			t.Fatalf("%s: Outcome %+v, per-tick reference %+v", tc.name, got.out, want.out)
		}
		if !slices.Equal(got.hosts, want.hosts) {
			t.Fatalf("%s: candidate hosts %v, per-tick reference %v", tc.name, got.hosts, want.hosts)
		}
		if tc.bandit && len(want.bandit) == 0 {
			t.Fatalf("%s: AfterWindow never ran; the check would be vacuous", tc.name)
		}
		for w := range want.log.scores {
			for i := range servers {
				g, x := got.log.scores[w][i], want.log.scores[w][i]
				if math.Float64bits(g) != math.Float64bits(x) {
					t.Fatalf("%s: window %d server %d scored %v, per-tick reference %v", tc.name, w, i, g, x)
				}
				if tc.bandit && math.Float64bits(got.bandit[w][i]) != math.Float64bits(want.bandit[w][i]) {
					t.Fatalf("%s: window %d server %d handed AfterWindow %v, per-tick reference %v", tc.name, w, i, got.bandit[w][i], want.bandit[w][i])
				}
			}
		}
		for i := range want.draws {
			if got.draws[i] != want.draws[i] {
				t.Fatalf("%s: server %d's next noise draw %d, per-tick reference %d", tc.name, i, got.draws[i], want.draws[i])
			}
		}
	}
}

// scoreLog holds, per probe window in time order, every server's score at
// the window's last tick and whether the window's wave probed the server.
type scoreLog struct {
	scores [][]float64
	probed [][]bool
}

// recordScores wraps c's probe monitor so that it fills a scoreLog of the
// given number of windows. Windows start at tick 0 and run
// CampaignProbeWindow ticks each. Each shard writes only its own servers'
// cells of rows allocated here, so the recording adds no shared write.
func recordScores(c *Campaign, windows int) *scoreLog {
	l := &scoreLog{scores: make([][]float64, windows), probed: make([][]bool, windows)}
	for w := range windows {
		l.scores[w] = make([]float64, c.servers)
		l.probed[w] = make([]bool, c.servers)
	}
	inner := c.monitor
	c.monitor = func(w *fleet.World) {
		inner(w)
		if (w.Last+1)%CampaignProbeWindow == 0 { // no span crosses a window's end
			row := w.Last / CampaignProbeWindow
			l.scores[row][w.Index] = c.scores[w.Index]
			l.probed[row][w.Index] = c.probed[w.Index]
		}
	}
	return l
}

// checkReadHosts runs one campaign three ways from the same seed: the
// every-host reference (refNewCampaign, whose monitor scores every host
// every tick), with no reader of the scores, and with a no-op AfterWindow
// that makes every host read. All three must reach the same Outcome and
// candidate hosts, which the judgement threshold coarsens, so the scores are
// compared too, bit for bit, at every window's last tick: the all-read run
// on every host, the unread run on the hosts its wave probed. An unread host
// must not be scored at all. It reports how many (window, host) pairs were
// probed.
func checkReadHosts(t *testing.T, name string, seed uint64, servers int, sched func() cluster.Scheduler, trickle bool, warmup int) int {
	t.Helper()
	windows := warmup + 1
	if trickle {
		windows = warmup + CampaignSenders
	}
	type run struct {
		out   Outcome
		hosts []int
		log   *scoreLog
	}
	do := func(c *Campaign, hooks Hooks) run {
		hooks.WarmupWindows = warmup
		l := recordScores(c, windows)
		return run{c.Run(hooks), c.CandidateHosts, l}
	}
	readAll := Hooks{AfterWindow: func(int, []float64) {}}
	ref := do(refNewCampaign(stats.NewRNG(seed), servers, sched(), trickle), readAll)
	unread := do(NewCampaign(stats.NewRNG(seed), servers, sched(), trickle), Hooks{})
	all := do(NewCampaign(stats.NewRNG(seed), servers, sched(), trickle), readAll)

	for _, r := range []struct {
		label string
		run
	}{{"no reader", unread}, {"AfterWindow", all}} {
		label := r.label
		if r.out != ref.out {
			t.Fatalf("%s, %s: Outcome %+v, every-host reference %+v", name, label, r.out, ref.out)
		}
		if !reflect.DeepEqual(r.hosts, ref.hosts) {
			t.Fatalf("%s, %s: candidate hosts %v, every-host reference %v", name, label, r.hosts, ref.hosts)
		}
	}
	probed := 0
	for w := range windows {
		for i := range servers {
			want := math.Float64bits(ref.log.scores[w][i])
			if got := math.Float64bits(all.log.scores[w][i]); got != want {
				t.Fatalf("%s, AfterWindow: window %d server %d scored %v, every-host reference %v",
					name, w, i, all.log.scores[w][i], ref.log.scores[w][i])
			}
			if unread.log.probed[w][i] != ref.log.probed[w][i] {
				t.Fatalf("%s: window %d server %d probed=%v, every-host reference %v",
					name, w, i, unread.log.probed[w][i], ref.log.probed[w][i])
			}
			got := unread.log.scores[w][i]
			switch {
			case unread.log.probed[w][i] && math.Float64bits(got) != want:
				t.Fatalf("%s, no reader: window %d probed server %d scored %v, every-host reference %v",
					name, w, i, got, ref.log.scores[w][i])
			case !unread.log.probed[w][i] && got != 0:
				t.Fatalf("%s, no reader: window %d scored unread server %d (%v)", name, w, i, got)
			}
			if unread.log.probed[w][i] {
				probed++
			}
		}
	}
	return probed
}

// readSetSchedulers are the schedulers the read-set oracle covers: the
// campaign's scheduler decides which hosts its senders probe.
var readSetSchedulers = []func() cluster.Scheduler{
	func() cluster.Scheduler { return cluster.Quasar{} },
	func() cluster.Scheduler { return cluster.NewAffinity(cluster.LeastLoaded{}) },
	func() cluster.Scheduler { return cluster.LeastLoaded{} },
}

// TestCampaignScoresReadHosts is the read set's differential oracle on
// fixed fleets: 1, 7, 64 and 256 servers under Quasar and affinity, bulk
// and trickle (checkReadHosts).
func TestCampaignScoresReadHosts(t *testing.T) {
	for _, servers := range []int{1, 7, 64, 256} {
		for si, sched := range readSetSchedulers[:2] {
			for _, trickle := range []bool{false, true} {
				name := fmt.Sprintf("servers=%d %s trickle=%v", servers, sched().Name(), trickle)
				if checkReadHosts(t, name, uint64(100*servers+10*si+7), servers, sched, trickle, 0) == 0 {
					t.Fatalf("%s: no window probed a host; the check would be vacuous", name)
				}
			}
		}
	}
}

// FuzzCampaignScoresReadHosts runs the read-set oracle (checkReadHosts) on
// fuzzed campaigns: a seed, 1–300 servers, one of three schedulers, bulk or
// trickle, and 0–2 warm-up windows, which no one reads without AfterWindow.
//
// What the reference (refNewCampaign's every-host monitor) shares with
// production, and what checks each piece instead:
//   - Campaign.Run, its waves and judgement: only the monitor differs (the
//     exper fleet goldens pin the rest);
//   - the schedulers that pick the probed hosts: cluster.NewAffinity,
//     Label and Pick (TestAffinityPickMatchesPerHostScan), Quasar.Pick
//     (FuzzQuasarPickMatchesReference), LeastLoaded.Pick
//     (TestSchedulerInvariants);
//   - Server.ObservedPressure, the score itself
//     (FuzzObservationMatchesReference in sim);
//   - fleet.Engine.Advance, which drives both monitors
//     (FuzzAdvanceMatchesTicks);
//   - the seeding, which the reference rebuilds serially
//     (FuzzCampaignSeedingMatchesReference).
func FuzzCampaignScoresReadHosts(f *testing.F) {
	f.Add(uint64(42), uint16(255), uint8(0), true, uint8(0))
	f.Add(uint64(7), uint16(0), uint8(1), false, uint8(1))
	f.Add(uint64(3), uint16(63), uint8(2), true, uint8(2))
	f.Add(uint64(11), uint16(299), uint8(1), false, uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, servers16 uint16, sched8 uint8, trickle bool, warmup8 uint8) {
		servers := 1 + int(servers16)%300
		sched := readSetSchedulers[int(sched8)%len(readSetSchedulers)]
		warmup := int(warmup8) % 3
		name := fmt.Sprintf("seed=%d servers=%d %s trickle=%v warmup=%d", seed, servers, sched().Name(), trickle, warmup)
		checkReadHosts(t, name, seed, servers, sched, trickle, warmup)
	})
}
