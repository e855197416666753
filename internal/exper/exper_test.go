package exper

import (
	"slices"
	"strings"
	"testing"

	"bolt/internal/cluster"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %+v incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment ID %q", e.ID)
		}
		ids[e.ID] = true
	}
	// Every table and figure in the paper's evaluation must be covered.
	for _, want := range []string{
		"table1", "table2", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
		"dosimpact", "coresidency", "isocost", "ablation", "insights", "defence", "confusion",
	} {
		if !ids[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("table1"); !ok {
		t.Fatal("table1 should resolve")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown ID should not resolve")
	}
}

func TestControlledDeterministic(t *testing.T) {
	a := RunControlled(ControlledConfig{Seed: 5, Servers: 6, Victims: 16})
	b := RunControlled(ControlledConfig{Seed: 5, Servers: 6, Victims: 16})
	if len(a.Records) != len(b.Records) {
		t.Fatal("same seed produced different record counts")
	}
	for i := range a.Records {
		if a.Records[i].CorrectIteration != b.Records[i].CorrectIteration ||
			a.Records[i].Spec.Label != b.Records[i].Spec.Label {
			t.Fatalf("same seed diverged at record %d", i)
		}
	}
	if a.Accuracy() != b.Accuracy() {
		t.Fatal("same seed, different accuracy")
	}
}

func TestControlledAccuracyReasonable(t *testing.T) {
	res := RunControlled(ControlledConfig{Seed: 42, Servers: 12, Victims: 32})
	acc := res.Accuracy()
	// The full-scale run reproduces the paper's shape at ~70-80%; a small
	// run must at least clear a sanity floor and stay below perfection.
	if acc < 35 || acc > 100 {
		t.Fatalf("accuracy %.0f%% out of plausible range", acc)
	}
	if len(res.Records) == 0 {
		t.Fatal("no victims recorded")
	}
}

// TestControlledSchedulers: the configured scheduler is the one that
// places the victims, so the same seed under least-loaded and Quasar
// groups them onto hosts differently.
func TestControlledSchedulers(t *testing.T) {
	coResidents := func(sched cluster.Scheduler) []int {
		var out []int
		for _, r := range RunControlled(ControlledConfig{Seed: 9, Servers: 8, Victims: 20, Scheduler: sched}).Records {
			out = append(out, r.CoResidents)
		}
		return out
	}
	ll, qu := coResidents(nil), coResidents(cluster.Quasar{})
	if slices.Equal(ll, qu) {
		t.Fatalf("least-loaded and Quasar placed the victims alike (co-residents %v)", ll)
	}
}

func TestAccuracyWhereEmptyFilter(t *testing.T) {
	res := &ControlledResult{}
	if res.Accuracy() != 0 {
		t.Fatal("empty result should have zero accuracy")
	}
}

func TestTable1Report(t *testing.T) {
	rep := Table1(7)
	if rep.ID != "table1" {
		t.Fatal("wrong report ID")
	}
	if len(rep.Tables) != 1 {
		t.Fatal("Table 1 should render one table")
	}
	out := rep.Tables[0].String()
	for _, class := range table1Classes {
		if !strings.Contains(out, class) {
			t.Errorf("Table 1 missing class %s", class)
		}
	}
	if rep.Metrics["aggregate_accuracy_ll"] <= 0 {
		t.Fatal("aggregate accuracy metric missing")
	}
	if rep.Metrics["victims_ll"] < 90 {
		t.Fatalf("only %v victims placed; want close to 108", rep.Metrics["victims_ll"])
	}
}

func TestFigure2Shape(t *testing.T) {
	rep := Figure2(7)
	if len(rep.Heatmaps) != 5 {
		t.Fatalf("Fig 2 should render 5 heatmaps, got %d", len(rep.Heatmaps))
	}
	// The paper's two headline signals must reproduce: high L1-i + LLC is
	// a strong memcached indicator; disk traffic rules memcached out.
	memSignal := rep.Metrics["p_memcached_given_high_l1i_llc"]
	diskSignal := rep.Metrics["p_memcached_given_disk_traffic"]
	if memSignal < 0.25 {
		t.Fatalf("P(memcached | high L1i+LLC) = %v, want strong", memSignal)
	}
	if diskSignal > 0.05 {
		t.Fatalf("P(memcached | disk traffic) = %v, want ~0", diskSignal)
	}
	if memSignal <= diskSignal*5 {
		t.Fatal("cache signal should dominate the disk signal")
	}
}

func TestFigure4Coverage(t *testing.T) {
	rep := Figure4(7)
	if rep.Metrics["training_apps"] != 120 {
		t.Fatalf("training set size %v, want 120", rep.Metrics["training_apps"])
	}
	if rep.Metrics["cpu_mem_spread"] < 20 {
		t.Fatal("training set should spread across the CPU/memory plane")
	}
}

func TestFigure5SimilarityOrdering(t *testing.T) {
	rep := Figure5(7)
	wc := rep.Metrics["similarity_wordcount"]
	recSim := rep.Metrics["similarity_recommender"]
	// The unknown job is a recommender variant: it must be substantially
	// closer to the recommender than to word count (paper: 0.78 vs 0.29).
	if recSim <= wc {
		t.Fatalf("similarity ordering wrong: recommender %v vs wordcount %v", recSim, wc)
	}
}

func TestFigure6Shape(t *testing.T) {
	rep := Figure6(7)
	a2 := rep.Metrics["accuracy_2_coresidents"]
	a4 := rep.Metrics["accuracy_4_coresidents"]
	if a2 == 0 {
		t.Skip("no 2-co-resident hosts in this placement")
	}
	// Accuracy must degrade with heavier multi-tenancy (paper: >95% → 67%).
	if a4 > a2+10 {
		t.Fatalf("accuracy should degrade with co-residents: 2→%v, 4→%v", a2, a4)
	}
}

func TestFigure7PDF(t *testing.T) {
	rep := Figure7(7)
	total := 0.0
	for it := 1; it <= 6; it++ {
		total += rep.Metrics[sprintfIter(it)]
	}
	if total < 99.9 || total > 100.1 {
		t.Fatalf("iteration PDF sums to %v, want 100", total)
	}
	// The first iterations must carry most of the mass (paper: 71% + 15%).
	if rep.Metrics["pdf_iter_1"]+rep.Metrics["pdf_iter_2"] < 40 {
		t.Fatalf("early iterations carry too little mass: %v + %v",
			rep.Metrics["pdf_iter_1"], rep.Metrics["pdf_iter_2"])
	}
}

func sprintfIter(it int) string {
	return map[int]string{
		1: "pdf_iter_1", 2: "pdf_iter_2", 3: "pdf_iter_3",
		4: "pdf_iter_4", 5: "pdf_iter_5", 6: "pdf_iter_6",
	}[it]
}

func TestFigure13Dynamics(t *testing.T) {
	rep := Figure13(7)
	// Bolt's attack must stay below the 70% migration trigger and keep the
	// victim degraded at the end; the naive attack must trip the defence
	// and lose its victim (latency recovered).
	if rep.Metrics["bolt_peak_cpu"] >= 70 {
		t.Fatalf("Bolt attack peaked at %v%% CPU; must stay under the trigger", rep.Metrics["bolt_peak_cpu"])
	}
	if rep.Metrics["naive_peak_cpu"] < 70 {
		t.Fatalf("naive attack peaked at only %v%% CPU", rep.Metrics["naive_peak_cpu"])
	}
	if rep.Metrics["bolt_final_p99_factor"] < 8 {
		t.Fatalf("Bolt final degradation %vx, want ≥8x", rep.Metrics["bolt_final_p99_factor"])
	}
	if rep.Metrics["naive_final_p99_factor"] > 3 {
		t.Fatalf("naive final degradation %vx; the migrated victim should recover", rep.Metrics["naive_final_p99_factor"])
	}
}

func TestTable2AllScenariosWin(t *testing.T) {
	rep := Table2(42)
	for si := 0; si < 3; si++ {
		vd := rep.Metrics[sprintfScenario("victim_degradation", si)]
		bi := rep.Metrics[sprintfScenario("beneficiary_improvement", si)]
		if vd <= 0 {
			t.Errorf("scenario %d: victim should degrade, got %v", si, vd)
		}
		if bi <= 0 {
			t.Errorf("scenario %d: beneficiary should improve, got %v", si, bi)
		}
	}
}

func sprintfScenario(prefix string, si int) string {
	return prefix + "_" + string(rune('0'+si))
}

func TestCoResidencyFinds(t *testing.T) {
	rep := CoResidencyExp(42)
	if rep.Metrics["found"] != 1 {
		t.Fatal("co-residency attack should locate the victim")
	}
	if rep.Metrics["latency_ratio"] < 2 {
		t.Fatalf("confirmation ratio %v, want ≥2", rep.Metrics["latency_ratio"])
	}
	if rep.Metrics["candidates"] < 1 {
		t.Fatal("at least the victim host should be a candidate")
	}
}

func TestFigure14Monotone(t *testing.T) {
	rep := Figure14(7)
	for _, platform := range []string{"baremetal", "containers", "VMs"} {
		none := rep.Metrics[platform+"_step0"]
		full := rep.Metrics[platform+"_step4"]
		coreIso := rep.Metrics[platform+"_step5"]
		if full >= none {
			t.Errorf("%s: the full partitioning stack should cut accuracy (%v → %v)", platform, none, full)
		}
		if coreIso >= full+5 {
			t.Errorf("%s: core isolation should cut deepest (%v → %v)", platform, full, coreIso)
		}
	}
	// Core isolation alone leaves substantial accuracy (paper: 46%).
	if rep.Metrics["core_isolation_only"] < 10 {
		t.Errorf("core isolation alone should still leak: %v", rep.Metrics["core_isolation_only"])
	}
}

func TestIsolationCostNumbers(t *testing.T) {
	rep := IsolationCost(7)
	if rep.Metrics["perf_penalty_pct"] < 30 || rep.Metrics["perf_penalty_pct"] > 40 {
		t.Fatalf("perf penalty %v%%, want ≈34%%", rep.Metrics["perf_penalty_pct"])
	}
	if rep.Metrics["dedicated_util"] > rep.Metrics["shared_util"] {
		t.Fatal("dedicated cores cannot pack better than shared cores")
	}
	if rep.Metrics["overprovision_drop_pct"] != 45 {
		t.Fatalf("over-provisioning drop %v%%, want 45%%", rep.Metrics["overprovision_drop_pct"])
	}
}

func TestAblationOrdering(t *testing.T) {
	rep := Ablations(42)
	if rep.Metrics["pure_cf"] >= rep.Metrics["baseline"] {
		t.Fatalf("pure CF (%v) must underperform the hybrid (%v): it cannot label victims",
			rep.Metrics["pure_cf"], rep.Metrics["baseline"])
	}
}

func TestConfusionMissesShareResources(t *testing.T) {
	rep := Confusion(42)
	if rep.Metrics["misses"] == 0 {
		t.Skip("no misses at this seed; nothing to analyse")
	}
	// The paper's claim: most misclassifications land on workloads with the
	// same or similar critical resources.
	if rep.Metrics["miss_top2_overlap_pct"] < 50 {
		t.Fatalf("only %v%% of misses share a top-2 resource; the paper's claim should hold",
			rep.Metrics["miss_top2_overlap_pct"])
	}
}

func TestDefenceEvasion(t *testing.T) {
	rep := DefenceEvasion(42)
	if rep.Metrics["bolt_evades_cpu_trigger"] != 1 {
		t.Fatal("Bolt's attack must evade the CPU-threshold trigger (§5.1)")
	}
	if rep.Metrics["naive_trips_cpu_trigger"] != 1 {
		t.Fatal("the naive attack must trip the CPU-threshold trigger")
	}
	if rep.Metrics["anomaly_catches_bolt"] != 1 {
		t.Fatal("the multi-resource anomaly detector should catch Bolt's attack")
	}
}

func TestInsightsRanking(t *testing.T) {
	rep := Insights(7)
	if rep.Metrics["concepts_retained"] < 3 {
		t.Fatal("too few similarity concepts retained")
	}
	// The paper's qualitative finding: the L1-i cache carries far more
	// detection value than the L2 (32KB→256KB captures little change in
	// working-set size).
	if rep.Metrics["value_L1-i"] <= rep.Metrics["value_L2"] {
		t.Fatalf("L1-i value (%v) should exceed L2 value (%v)",
			rep.Metrics["value_L1-i"], rep.Metrics["value_L2"])
	}
	// Values are normalised to max 1.
	for _, k := range []string{"value_L1-i", "value_LLC", "value_MemBW"} {
		if rep.Metrics[k] < 0 || rep.Metrics[k] > 1 {
			t.Fatalf("%s out of [0,1]: %v", k, rep.Metrics[k])
		}
	}
}

func TestStudyExperimentScales(t *testing.T) {
	rep := Figure12(7)
	if rep.Metrics["jobs_total"] < 400 {
		t.Fatalf("study placed only %v jobs", rep.Metrics["jobs_total"])
	}
	if rep.Metrics["characterise_rate"] < rep.Metrics["label_rate"] {
		t.Fatal("characterisation is a weaker criterion and must not lag labelling")
	}
	if rep.Metrics["label_rate"] <= 0 {
		t.Fatal("some jobs must be labelled")
	}
}
