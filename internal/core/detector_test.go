package core

import (
	"testing"

	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

func trainedDetector(t *testing.T) *Detector {
	t.Helper()
	return Train(workload.TrainingSpecs(100), Config{})
}

// hostWith places the adversary plus the given victim specs on one server.
func hostWith(t *testing.T, adv *probe.Adversary, specs ...workload.Spec) *sim.Server {
	t.Helper()
	s := sim.NewServer("s0", sim.ServerConfig{})
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		app := workload.NewApp(spec, workload.Constant{Level: 1}, uint64(i+1))
		vm := &sim.VM{ID: spec.Label + string(rune('a'+i)), VCPUs: 4, App: app}
		if err := s.Place(vm); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestTrainBuildsLookup(t *testing.T) {
	d := trainedDetector(t)
	specs := workload.TrainingSpecs(100)
	if _, ok := d.TrainingProfile(specs[0].Label); !ok {
		t.Fatalf("training label %q missing from lookup", specs[0].Label)
	}
	if _, ok := d.TrainingProfile("no-such-label"); ok {
		t.Fatal("unknown label should not resolve")
	}
}

func TestDetectSingleVictim(t *testing.T) {
	d := trainedDetector(t)
	rng := stats.NewRNG(7)
	correct := 0
	victims := workload.VictimSpecs(100, 20)
	for i, spec := range victims {
		adv := probe.NewAdversary("adv", 4, probe.Config{}, rng.Split())
		s := hostWith(t, adv, spec)
		det := d.Detect(s, adv, sim.Tick(i*1000), 1)
		if det.Result == nil || len(det.CoResidents) == 0 {
			t.Fatalf("victim %s: empty detection", spec.Label)
		}
		if ClassMatches(det.Result.Best().Label, spec.Class) {
			correct++
		}
	}
	// The paper reports >95% accuracy for a single co-resident on real
	// hardware; this substrate's 4-vCPU victim shares no core with the
	// adversary here, leaving only the six uncore resources as signal, so
	// the bar sits lower (see EXPERIMENTS.md).
	if correct < 14 {
		t.Fatalf("single-victim class accuracy %d/20, want ≥14", correct)
	}
}

func TestDetectConsumesTime(t *testing.T) {
	d := trainedDetector(t)
	adv := probe.NewAdversary("adv", 4, probe.Config{}, stats.NewRNG(8))
	s := hostWith(t, adv, workload.VictimSpecs(100, 1)[0])
	det := d.Detect(s, adv, 0, 1)
	if det.Ticks <= 0 {
		t.Fatal("detection must consume simulated time")
	}
	if det.Iterations < 1 {
		t.Fatal("detection must run at least one iteration")
	}
	// One iteration is 2-3 microbenchmarks at ≤20 ramp steps each, i.e. a
	// few seconds — the paper's 2-5 s per iteration. An iteration that
	// escalates (a shutter pass adds a shutterSamples*3-tick window, an MRC
	// probe its ramp) can roughly double that, so the bound sits at the
	// fully escalated ceiling rather than the happy path.
	secs := det.Ticks.Seconds() / float64(det.Iterations)
	if secs > 12 {
		t.Fatalf("per-iteration time %.1fs is implausibly long", secs)
	}
}

func TestDetectMultipleCoResidents(t *testing.T) {
	d := trainedDetector(t)
	rng := stats.NewRNG(9)
	victims := workload.VictimSpecs(101, 2)
	adv := probe.NewAdversary("adv", 4, probe.Config{}, rng.Split())
	s := hostWith(t, adv, victims...)
	det := d.Detect(s, adv, 0, 3)
	if len(det.CoResidents) == 0 {
		t.Fatal("no co-residents reported")
	}
	if len(det.CoResidents) > 3 {
		t.Fatalf("peel exceeded maxVictims: %d", len(det.CoResidents))
	}
}

func TestEpisodeAccumulatesObservations(t *testing.T) {
	d := trainedDetector(t)
	adv := probe.NewAdversary("adv", 4, probe.Config{}, stats.NewRNG(10))
	s := hostWith(t, adv, workload.VictimSpecs(102, 1)[0])
	e := d.NewEpisode(s, adv)
	// combined reuses its buffers, so count before the next Step.
	countKnown := func() int {
		_, known := e.combined()
		n := 0
		for _, k := range known {
			if k {
				n++
			}
		}
		return n
	}
	e.Step(0)
	n1 := countKnown()
	e.Step(0)
	n2 := countKnown()
	if n2 < n1 {
		t.Fatalf("observations must accumulate: %d then %d", n1, n2)
	}
	if e.Iterations != 2 {
		t.Fatalf("Iterations = %d, want 2", e.Iterations)
	}
}

func TestLabelMatches(t *testing.T) {
	cases := []struct {
		detected, truth string
		want            bool
	}{
		{"hadoop:svm:L", "hadoop:svm:S", true}, // framework+algorithm match
		{"hadoop:svm:L", "hadoop:kmeans:L", false},
		{"hadoop:svm:L", "spark:svm:L", false},
		{"memcached:rd90:KB", "memcached:rd90:MB", true},
		{"memcached:rd90:KB", "memcached:rd95:MB", true},  // both read-mostly
		{"memcached:rd90:KB", "memcached:rd50:KB", false}, // read- vs write-heavy
		{"redis:v1", "redis:v2", true},                    // arbitrary instance ids
		{"webserver:static", "webserver:static", true},
		{"", "hadoop:svm:L", false},
		{"hadoop:svm:L", "", false},
		// Class-only vs variant labels: a bare class neither matches a
		// variant label nor vice versa, but two bare classes match.
		{"hadoop", "hadoop", true},
		{"hadoop", "hadoop:svm:L", false},
		{"hadoop:svm:L", "hadoop", false},
		// memcached edge ratios around the 70% read-mostly boundary.
		{"memcached:rd70:KB", "memcached:rd99:MB", true},  // both at/above 70
		{"memcached:rd69:KB", "memcached:rd70:MB", false}, // straddles the edge
		{"memcached:rd69:KB", "memcached:rd0:MB", true},   // both write-heavy
		// Malformed ratio tokens never match — not even themselves, and in
		// particular two equally malformed labels must not agree.
		{"memcached:rd:KB", "memcached:rd:KB", false},
		{"memcached:foo", "memcached:foo", false},
		{"memcached:rd1x", "memcached:rd50", false},
		{"memcached:rd9999999999999999", "memcached:rd50", false},
		{"memcached:foo", "memcached:rd50", false},
		{"memcached:rd90", "memcached:bar", false},
		{"memcached", "memcached:rd90", false}, // missing ratio token
	}
	for _, c := range cases {
		if got := LabelMatches(c.detected, c.truth); got != c.want {
			t.Errorf("LabelMatches(%q, %q) = %v, want %v", c.detected, c.truth, got, c.want)
		}
	}
}

func TestClassMatches(t *testing.T) {
	if !ClassMatches("hadoop:svm:L", "hadoop") || ClassMatches("spark:x", "hadoop") {
		t.Fatal("ClassMatches misbehaved")
	}
	if ClassMatches("", "hadoop") {
		t.Fatal("empty label should not match")
	}
}

func TestCharacteristicsMatch(t *testing.T) {
	var truth sim.Vector
	truth.Set(sim.MemBW, 90)
	truth.Set(sim.LLC, 60)

	detected := make([]float64, sim.NumResources)
	detected[sim.MemBW] = 85
	if !CharacteristicsMatch(detected, truth) {
		t.Fatal("matching dominant resource should pass")
	}

	detected = make([]float64, sim.NumResources)
	detected[sim.DiskBW] = 80
	detected[sim.MemBW] = 75 // truth's dominant in detected top-2
	if !CharacteristicsMatch(detected, truth) {
		t.Fatal("dominant in top-2 should pass")
	}

	detected = make([]float64, sim.NumResources)
	detected[sim.DiskBW] = 80
	detected[sim.NetBW] = 75
	if CharacteristicsMatch(detected, truth) {
		t.Fatal("disjoint top resources should fail")
	}

	if CharacteristicsMatch(nil, truth) {
		t.Fatal("wrong-length vector should fail")
	}
}

func TestShutterDisabled(t *testing.T) {
	d := Train(workload.TrainingSpecs(100), Config{DisableShutter: true})
	adv := probe.NewAdversary("adv", 4, probe.Config{}, stats.NewRNG(11))
	// Two victims, neither sharing a core with the adversary (4+4+4 vCPUs
	// fit on 16 without overlap), so only the shutter path could fire.
	victims := workload.VictimSpecs(103, 2)
	s := hostWith(t, adv, victims...)
	det := d.Detect(s, adv, 0, 2)
	if det.UsedShutter {
		t.Fatal("shutter was disabled but ran")
	}
}

func TestDetectionAgainstEmptyHost(t *testing.T) {
	d := trainedDetector(t)
	adv := probe.NewAdversary("adv", 4, probe.Config{}, stats.NewRNG(12))
	s := sim.NewServer("s0", sim.ServerConfig{})
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	det := d.Detect(s, adv, 0, 3)
	// An empty host yields near-zero pressure everywhere; whatever matches
	// must not fan out into multiple phantom co-residents.
	if len(det.CoResidents) > 1 {
		t.Fatalf("empty host produced %d co-residents", len(det.CoResidents))
	}
}
