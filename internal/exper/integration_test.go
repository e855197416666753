package exper

import (
	"bytes"
	"strings"
	"testing"

	"bolt/internal/attack"
	"bolt/internal/core"
	"bolt/internal/latency"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// TestEndToEndPipeline walks the whole system across module boundaries:
// catalog → placement → probing → mining → detection → attack planning →
// latency impact. Each stage asserts its own contract, so a regression
// anywhere in the chain is pinned to a stage rather than a headline number.
func TestEndToEndPipeline(t *testing.T) {
	rng := stats.NewRNG(2024)

	// Stage 1: catalog. Training and victim populations exist and carry
	// sane pressure vectors.
	train := workload.TrainingSpecs(2024)
	if len(train) != workload.TrainingSetSize {
		t.Fatalf("training set size %d", len(train))
	}
	victimSpec := workload.Memcached(rng.Split(), 4)
	victimSpec.Jitter = 0

	// Stage 2: placement. Victim first, adversary into the remaining
	// slots; breadth-first placement puts them on sibling hyperthreads.
	host := sim.NewServer("host", sim.ServerConfig{})
	app := workload.NewApp(victimSpec, workload.Constant{Level: 0.9}, rng.Uint64())
	victim := &sim.VM{ID: "victim", VCPUs: 5, App: app}
	if err := host.Place(victim); err != nil {
		t.Fatal(err)
	}
	adv := probe.NewAdversary("bolt", 4, probe.Config{}, rng.Split())
	if err := host.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	if !host.SharesCore(victim, adv.VM) {
		t.Fatal("stage 2: expected hyperthread sharing in this topology")
	}

	// Stage 3: probing. A single profile measures 2-3 resources in 2-5 s
	// and reads the shared-core state correctly.
	p := adv.ProfileOnce(host, 0, 0)
	if !p.CoreShared {
		t.Fatal("stage 3: core sharing not detected")
	}
	if secs := p.Ticks.Seconds(); secs < 0.5 || secs > 8 {
		t.Fatalf("stage 3: profiling took %.1fs, expected the paper's few seconds", secs)
	}

	// Stage 4: mining. Detection labels the victim and recovers its
	// critical resources.
	det := core.Train(train, core.Config{})
	detection := det.Detect(host, adv, 0, 1)
	// Accuracy per se is covered elsewhere; here the contract is that the
	// detection lands in the right family (memcached's only near-twin in
	// the catalog is redis — the paper's own lowest-accuracy confusion).
	best := detection.Result.Best().Label
	if !core.ClassMatches(best, "memcached") && !core.ClassMatches(best, "redis") {
		t.Fatalf("stage 4: detected %q for a %s victim", best, victimSpec.Class)
	}
	recovered := sim.FromSlice(detection.Result.Pressure)
	truthTop := victimSpec.Base.TopK(2)
	overlap := false
	for _, r := range recovered.TopK(3) {
		for _, tr := range truthTop {
			if r == tr {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Fatalf("stage 4: recovered criticals %v miss the truth %v",
			recovered.TopK(3), truthTop)
	}

	// Stage 5: attack planning. The plan targets reachable resources,
	// avoids the CPU, and actually hurts.
	plan := attack.PlanDoS(detection, 2)
	if plan.AdversaryCPU() != 0 {
		t.Fatal("stage 5: plan must not burn CPU")
	}
	svc := &latency.Service{VM: victim, Pattern: workload.Constant{Level: 0.9}}
	before := svc.Measure(host, 500).P99Ms
	attack.Launch(adv, plan)
	after := svc.Measure(host, 500).P99Ms
	attack.Stop(adv)
	if after < before*3 {
		t.Fatalf("stage 5: attack raised p99 only %.1fx", after/before)
	}
	// And the host stays below the migration trigger.
	if u := host.CPUUtilization(500); u > 70 {
		t.Fatalf("stage 5: utilisation %v%% would trip the defence", u)
	}
}

// TestReportJSONRoundTrip: every experiment's report must serialise to
// valid JSON carrying its metrics.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := Figure5(3)
	var buf bytes.Buffer
	if err := WriteAllJSON(&buf, 3, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"id": "fig5"`, "similarity_recommender", `"tables"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out[:200])
		}
	}
}

// TestExperimentsAllRunnable executes every registered experiment at a tiny
// seed and checks the report contract: non-empty ID, at least one artefact,
// and at least one metric. This is the smoke net that keeps the whole
// harness runnable as modules evolve. Heavyweight experiments are skipped
// in -short mode.
func TestExperimentsAllRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			rep := e.Run(11)
			if rep.ID != e.ID {
				t.Fatalf("report ID %q != experiment ID %q", rep.ID, e.ID)
			}
			if len(rep.Tables)+len(rep.Figures)+len(rep.Heatmaps) == 0 {
				t.Fatal("report renders nothing")
			}
			if len(rep.Metrics) == 0 {
				t.Fatal("report carries no metrics")
			}
			var buf bytes.Buffer
			rep.Render(&buf)
			if buf.Len() == 0 {
				t.Fatal("report rendered empty")
			}
		})
	}
}
