package exper

import (
	"bytes"
	"fmt"
	"testing"

	"bolt/internal/attack"
	"bolt/internal/cluster"
	"bolt/internal/core"
	"bolt/internal/defence"
	"bolt/internal/fleet"
	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// withoutDefenceSweep returns the experiment list with defencesweep
// removed — the "defence off" suite.
func withoutDefenceSweep() []Experiment {
	var out []Experiment
	for _, e := range All() {
		if e.ID != "defencesweep" {
			out = append(out, e)
		}
	}
	return out
}

// TestSuiteGoldenWithDefenceOff checks the seed-42 suite against its
// goldens. With the defence plane off (its experiment excluded) every
// other report must still be its section of seed-42.txt, at -parallel 1,
// 2, 4 and 8: extracting the campaign into internal/attack left the fleet
// experiment byte-identical. The full suite at the default -parallel and
// -epworkers 1 must render seed-42.txt and seed-42.json.
func TestSuiteGoldenWithDefenceOff(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full experiment suite five times")
	}
	const seed = 42
	for _, parallel := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			checkGolden(t, "seed-42.txt", renderStdout(t, withoutDefenceSweep(), seed, parallel))
		})
	}

	withEpisodeWorkers(t, 1)
	var text, doc bytes.Buffer
	var reports []*Report
	for _, r := range Run(All(), seed, 0) {
		r.Report.Render(&text)
		reports = append(reports, r.Report)
	}
	checkGolden(t, "seed-42.txt", text.Bytes())
	if err := WriteAllJSON(&doc, seed, reports); err != nil {
		t.Fatalf("WriteAllJSON: %v", err)
	}
	checkGolden(t, "seed-42.json", doc.Bytes())
}

// TestDefenceSweepParityAcrossWorkers is the defencesweep determinism
// contract: the rendered report must be its golden at every -epworkers
// (cells fan out on the episode pool) and -shardworkers (each campaign
// ticks on the sharded fleet engine) width, including widths that do not
// divide the cell or server counts, on the default ladder and at 64, 256
// and 4096 servers.
func TestDefenceSweepParityAcrossWorkers(t *testing.T) {
	t.Cleanup(func() {
		SetEpisodeWorkers(0)
		fleet.SetShardWorkers(0)
		SetFleetServers(0)
	})
	render := func(epworkers, shardworkers int) []byte {
		SetEpisodeWorkers(epworkers)
		fleet.SetShardWorkers(shardworkers)
		var buf bytes.Buffer
		DefenceSweep(42).Render(&buf)
		return buf.Bytes()
	}
	widths := [][2]int{{1, 3}, {3, 7}}
	for _, ep := range []int{1, 2, 4, 8} {
		for _, sw := range []int{1, 2, 4, 8} {
			widths = append(widths, [2]int{ep, sw})
		}
	}
	for _, w := range widths {
		t.Run(fmt.Sprintf("epworkers=%d,shardworkers=%d", w[0], w[1]), func(t *testing.T) {
			checkGolden(t, fleetGolden(0), render(w[0], w[1]))
		})
	}
	for _, n := range []int{64, 256, 4096} {
		SetFleetServers(n)
		for _, sw := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("fleet=%d,shardworkers=%d", n, sw), func(t *testing.T) {
				checkGolden(t, fleetGolden(n), render(0, sw))
			})
		}
	}
}

// TestDefenceSweepDefeatsAffinityAttack pins the sweep's headline result
// at seed 42: the undefended affinity scheduler hands the attacker perfect
// candidate precision at 256 servers, and at least one secure policy
// drives it below 0.5.
func TestDefenceSweepDefeatsAffinityAttack(t *testing.T) {
	rep := DefenceSweep(42)
	base, ok := rep.Metrics["precision_none_256"]
	if !ok {
		t.Fatal("baseline metric precision_none_256 missing")
	}
	if base != 1.0 {
		t.Fatalf("undefended precision at 256 servers = %g, want 1.0", base)
	}
	defended := []string{"pssf", "bandit-eps", "bandit-ucb", "mtd"}
	broke := false
	for _, p := range defended {
		key := "precision_" + p + "_256"
		v, ok := rep.Metrics[key]
		if !ok {
			t.Fatalf("metric %s missing", key)
		}
		if v < 0.5 {
			broke = true
		}
		for _, mk := range []string{"coresidency_p_", "det_accuracy_", "det_unknown_", "moves_", "probe_ticks_"} {
			if _, ok := rep.Metrics[mk+p+"_256"]; !ok {
				t.Fatalf("metric %s%s_256 missing", mk, p)
			}
		}
	}
	if !broke {
		t.Fatalf("no defended policy pushed precision below 0.5 at 256 servers")
	}
	if rep.Metrics["moves_mtd_256"] == 0 {
		t.Fatal("mtd ran without recording any migrations")
	}
}

// TestMTDMigratesVictimsMidAttack drives a real campaign with the
// moving-target hooks and checks the defence acted *during* the attack:
// victims moved, every victim is still resolvable through the cluster
// index afterwards, and migration churn never duplicated a VM.
func TestMTDMigratesVictimsMidAttack(t *testing.T) {
	rng := stats.NewRNG(9)
	sched := cluster.NewAffinity(cluster.LeastLoaded{})
	c := attack.NewCampaign(rng, 64, sched, true)

	mt := defence.NewMovingTarget(attack.CampaignProbeWindow / 2)
	for _, id := range c.Victims {
		mt.Track(id, 0)
	}
	hooks := attack.Hooks{AfterTick: func(tick sim.Tick, _ []fleet.Event) {
		for _, id := range c.Victims {
			if mt.Due(id, tick) {
				if _, err := c.Cl.Migrate(id, tick); err == nil {
					mt.Moved(id, tick)
				}
			}
		}
	}}
	out := c.Run(hooks)

	if mt.Moves() == 0 {
		t.Fatal("cadence never migrated a victim during the attack")
	}
	for _, id := range c.Victims {
		host := c.Cl.HostOf(id)
		if host == nil {
			t.Fatalf("victim %s lost by migration", id)
		}
		if host.Lookup(id) == nil {
			t.Fatalf("index says %s is on %s but the server does not hold it", id, host.Name())
		}
	}
	count := map[string]int{}
	for _, s := range c.Cl.Servers {
		for _, vm := range s.VMs() {
			count[vm.ID]++
		}
	}
	for id, n := range count {
		if n != 1 {
			t.Fatalf("VM %s appears on %d servers after migration churn", id, n)
		}
	}
	if out.Launches != attack.CampaignSenders {
		t.Fatalf("campaign launched %d senders, want %d", out.Launches, attack.CampaignSenders)
	}
}

// TestEpisodePartialProfileAfterVictimMigration is the probe-ramp edge:
// the victim is migrated away between an episode's iterations, so later
// ramps profile a host the victim already left. The graded outcome must
// still be well-formed — either a confident label from the detector's
// label space or a graceful degradation to UnknownLabel — never a crash or
// an empty grade.
func TestEpisodePartialProfileAfterVictimMigration(t *testing.T) {
	seed := uint64(11)
	det := core.TrainCached(workload.TrainingSpecs(seed), core.Config{})
	rng := stats.NewRNG(seed)

	cl := cluster.New(2, sim.ServerConfig{}, cluster.LeastLoaded{})
	vspec := workload.SQLDatabase(rng.Split(), 2)
	vspec.Jitter = 0
	app := workload.NewApp(vspec, workload.Constant{Level: 0.9}, rng.Uint64())
	host, err := cl.Place(&sim.VM{ID: "victim", VCPUs: 4, App: app}, 0)
	if err != nil {
		t.Fatal(err)
	}
	adv := probe.NewAdversary("adv", 4, probe.Config{}, rng.Split())
	if err := host.Place(adv.VM); err != nil {
		t.Fatal(err)
	}

	ep := det.NewEpisode(host, adv)
	var last *mining.Result
	for it := 0; it < 2; it++ {
		last = ep.Step(0)
	}
	if _, err := cl.Migrate("victim", ep.Ticks); err != nil {
		t.Fatalf("mid-episode migration: %v", err)
	}
	if cl.HostOf("victim") == host {
		t.Fatal("victim did not actually leave the profiled host")
	}
	for it := 0; it < 2; it++ {
		last = ep.Step(0)
	}

	label, conf, unknown := ep.Grade(last)
	if conf < 0 || conf > 1 {
		t.Fatalf("confidence %g outside [0, 1]", conf)
	}
	if unknown {
		if label != core.UnknownLabel {
			t.Fatalf("unknown grade carries label %q, want %q", label, core.UnknownLabel)
		}
		return
	}
	if label == "" {
		t.Fatal("confident grade with an empty label")
	}
	if _, ok := det.TrainingProfile(label); !ok {
		t.Fatalf("confident label %q is not in the detector's label space", label)
	}
}
