package workload

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"bolt/internal/sim"
	"bolt/internal/stats"
)

func TestConstantPattern(t *testing.T) {
	p := Constant{Level: 0.6}
	if p.Factor(0) != 0.6 || p.Factor(1000) != 0.6 {
		t.Fatal("constant pattern should be flat")
	}
	if (Constant{Level: 2}).Factor(0) != 1 {
		t.Fatal("constant pattern should clamp to 1")
	}
}

func TestDiurnalPatternBounds(t *testing.T) {
	p := Diurnal{Min: 0.2, Max: 0.9, Period: 100}
	lo, hi := 2.0, -1.0
	for tick := sim.Tick(0); tick < 200; tick++ {
		f := p.Factor(tick)
		if f < 0.19 || f > 0.91 {
			t.Fatalf("diurnal factor %v outside [0.2, 0.9] at %d", f, tick)
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	if hi-lo < 0.5 {
		t.Fatalf("diurnal pattern barely oscillates: [%v, %v]", lo, hi)
	}
}

func TestDiurnalZeroPeriod(t *testing.T) {
	p := Diurnal{Min: 0.1, Max: 0.8, Period: 0}
	if p.Factor(5) != 0.8 {
		t.Fatal("zero-period diurnal should return Max")
	}
}

func TestBurstyPattern(t *testing.T) {
	p := Bursty{OnLevel: 0.9, OffLevel: 0.1, OnTicks: 10, OffTicks: 5}
	if p.Factor(0) != 0.9 || p.Factor(9) != 0.9 {
		t.Fatal("bursty should be on at cycle start")
	}
	if p.Factor(10) != 0.1 || p.Factor(14) != 0.1 {
		t.Fatal("bursty should be off after OnTicks")
	}
	if p.Factor(15) != 0.9 {
		t.Fatal("bursty should wrap")
	}
}

func TestBurstyOffset(t *testing.T) {
	p := Bursty{OnLevel: 1, OffLevel: 0, OnTicks: 10, OffTicks: 10, Offset: 10}
	if p.Factor(0) != 0 {
		t.Fatal("offset should shift the cycle")
	}
}

func TestBatchPattern(t *testing.T) {
	p := Batch{Ramp: 10, Duration: 100, Level: 1}
	if p.Factor(0) != 0 {
		t.Fatal("batch starts at zero")
	}
	if f := p.Factor(5); f != 0.5 {
		t.Fatalf("mid-ramp factor = %v, want 0.5", f)
	}
	if p.Factor(50) != 1 {
		t.Fatal("steady phase should be at Level")
	}
	if p.Factor(100) != 0 || p.Factor(200) != 0 {
		t.Fatal("finished batch should have zero load")
	}
	if p.Factor(-5) != 0 {
		t.Fatal("negative time should have zero load")
	}
}

func TestAppDemandDeterministic(t *testing.T) {
	spec := Memcached(stats.NewRNG(1), 0)
	app := NewApp(spec, Constant{Level: 1}, 99)
	d1 := app.Demand(42)
	d2 := app.Demand(42)
	if d1 != d2 {
		t.Fatal("Demand must be a pure function of the tick")
	}
}

func TestAppDemandScalesWithLoad(t *testing.T) {
	spec := Webserver(stats.NewRNG(2), 0)
	spec.Jitter = 0
	high := NewApp(spec, Constant{Level: 1}, 1)
	low := NewApp(spec, Constant{Level: 0.2}, 1)
	dh, dl := high.Demand(10), low.Demand(10)
	if dl.Get(sim.NetBW) >= dh.Get(sim.NetBW) {
		t.Fatalf("net bandwidth should follow load: low %v, high %v",
			dl.Get(sim.NetBW), dh.Get(sim.NetBW))
	}
	// Memory capacity is mostly resident: low load keeps most of it.
	if dl.Get(sim.MemCap) < 0.7*dh.Get(sim.MemCap) {
		t.Fatalf("memory capacity should be mostly load-independent: %v vs %v",
			dl.Get(sim.MemCap), dh.Get(sim.MemCap))
	}
}

func TestAppStartDelay(t *testing.T) {
	spec := SpecCPU(stats.NewRNG(3), 0)
	app := NewApp(spec, Constant{Level: 1}, 5)
	app.Start = 100
	if d := app.Demand(50); d != (sim.Vector{}) {
		t.Fatalf("app before Start should have zero demand: %v", d)
	}
	if d := app.Demand(150); d == (sim.Vector{}) {
		t.Fatal("app after Start should have demand")
	}
}

func TestAppNoiseBounded(t *testing.T) {
	spec := Spark(stats.NewRNG(4), 0)
	spec.Jitter = 0.05
	app := NewApp(spec, Constant{Level: 1}, 7)
	for tick := sim.Tick(0); tick < 200; tick++ {
		d := app.Demand(tick)
		for _, r := range sim.AllResources() {
			base := spec.Base.Get(r)
			if base == 0 {
				continue
			}
			ratio := d.Get(r) / base
			if ratio < 0.88 || ratio > 1.12 {
				t.Fatalf("noise out of bounds at %v/%v: ratio %v", tick, r, ratio)
			}
		}
	}
}

func TestSensitivityDefaultsToBase(t *testing.T) {
	spec := Memcached(stats.NewRNG(5), 0)
	app := NewApp(spec, nil, 1)
	sens := app.Sensitivity()
	for _, r := range sim.AllResources() {
		want := spec.Base.Get(r) / 100
		if sens.Get(r) != want {
			t.Fatalf("sensitivity(%v) = %v, want %v", r, sens.Get(r), want)
		}
	}
}

func TestSequencePhases(t *testing.T) {
	rng := stats.NewRNG(6)
	spec1 := SpecCPU(rng, 0)
	spec2 := Memcached(rng, 0)
	seq := NewSequence([]Phase{
		{Spec: spec1, Pattern: Constant{Level: 1}, Duration: 100},
		{Spec: spec2, Pattern: Constant{Level: 1}, Duration: 100},
	}, 11)
	if seq.ActiveSpec(50).Class != "speccpu" {
		t.Fatal("phase 1 should be SPEC")
	}
	if seq.ActiveSpec(150).Class != "memcached" {
		t.Fatal("phase 2 should be memcached")
	}
	// SPEC has no network traffic; memcached does.
	if seq.Demand(50)[sim.NetBW] > 5 {
		t.Fatal("SPEC phase should have ~no network demand")
	}
	if seq.Demand(150)[sim.NetBW] < 20 {
		t.Fatal("memcached phase should have network demand")
	}
	// Past the last phase the final spec keeps running.
	if seq.ActiveSpec(500).Class != "memcached" {
		t.Fatal("after the last phase the final spec should persist")
	}
}

func TestSequenceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty sequence did not panic")
		}
	}()
	NewSequence(nil, 1)
}

func TestTrainingSpecsSizeAndDiversity(t *testing.T) {
	specs := TrainingSpecs(1)
	if len(specs) != TrainingSetSize {
		t.Fatalf("training set has %d specs, want %d", len(specs), TrainingSetSize)
	}
	classes := make(map[string]int)
	for _, s := range specs {
		classes[s.Class]++
	}
	// The sql generator yields two classes (mysql and postgres), so the
	// class count is one more than the generator count.
	if len(classes) != len(Generators())+1 {
		t.Fatalf("training set covers %d classes, want %d", len(classes), len(Generators())+1)
	}
}

func TestTrainingAndVictimsDisjoint(t *testing.T) {
	// Labels name workload *types* (class:algorithm:params) and may recur
	// across populations — the paper scores a detection as correct when the
	// framework and algorithm/load class match. Instance-level disjointness
	// (different datasets and input loads, §3.4) shows up as distinct
	// pressure vectors: no victim may be bit-identical to a training app.
	train := TrainingSpecs(1)
	victims := VictimSpecs(1, 108)
	seen := make(map[sim.Vector]bool)
	for _, s := range train {
		seen[s.Base] = true
	}
	for _, s := range victims {
		if seen[s.Base] {
			t.Fatalf("victim %q has a pressure vector identical to a training app", s.Label)
		}
	}
}

func TestVictimSpecsCount(t *testing.T) {
	if n := len(VictimSpecs(2, 108)); n != 108 {
		t.Fatalf("got %d victims, want 108", n)
	}
}

func TestSpecsPressureInRange(t *testing.T) {
	for _, s := range append(TrainingSpecs(3), VictimSpecs(3, 60)...) {
		for _, r := range sim.AllResources() {
			p := s.Base.Get(r)
			if p < 0 || p > 100 {
				t.Fatalf("%s: pressure %v out of range on %v", s.Label, p, r)
			}
		}
	}
}

func TestMemcachedSignature(t *testing.T) {
	spec := Memcached(stats.NewRNG(8), 0)
	if spec.Base.Get(sim.L1I) < 70 {
		t.Fatalf("memcached L1-i pressure %v, want high", spec.Base.Get(sim.L1I))
	}
	if spec.Base.Get(sim.DiskBW) > 10 || spec.Base.Get(sim.DiskCap) > 10 {
		t.Fatal("memcached should have ~zero disk traffic")
	}
}

func TestSpecCPUNoIO(t *testing.T) {
	for variant := 0; variant < 10; variant++ {
		spec := SpecCPU(stats.NewRNG(uint64(variant)), variant)
		if spec.Base.Get(sim.NetBW) > 8 {
			t.Fatalf("%s should have ~no network traffic", spec.Label)
		}
	}
}

func TestGeneratorsLabelsVary(t *testing.T) {
	rng := stats.NewRNG(9)
	for _, g := range Generators() {
		a := g.Make(rng.Split(), 0)
		b := g.Make(rng.Split(), 1)
		if a.Label == b.Label {
			t.Fatalf("class %s: variants 0 and 1 share label %q", g.Class, a.Label)
		}
		if !strings.Contains(a.Class, g.Class) && a.Class != g.Class {
			t.Fatalf("class mismatch: %q vs %q", a.Class, g.Class)
		}
	}
}

// refLabels are the catalog's labels in the fmt.Sprintf form the
// generators built them with before labels were concatenated, by class.
var refLabels = map[string]func(variant int) string{
	"memcached": func(v int) string {
		return fmt.Sprintf("memcached:rd%d:%s", pick([]int{50, 70, 80, 90, 95, 99}, v), pick([]string{"B", "KB", "MB"}, v/6))
	},
	"hadoop": func(v int) string {
		algos := []string{"wordcount", "grep", "sort", "svm", "kmeans", "naivebayes", "recommender", "pagerank"}
		return fmt.Sprintf("hadoop:%s:%s", pick(algos, v), pick([]string{"S", "M", "L"}, v/len(algos)))
	},
	"spark": func(v int) string {
		algos := []string{"kmeans", "pagerank", "logistic", "svm", "als", "streaming"}
		return fmt.Sprintf("spark:%s:%s", pick(algos, v), pick([]string{"S", "M", "L"}, v/len(algos)))
	},
	"cassandra": func(v int) string {
		return fmt.Sprintf("cassandra:%s", pick([]string{"rd", "wr", "mixed", "scan"}, v))
	},
	"speccpu": func(v int) string {
		names := []string{"mcf", "lbm", "milc", "libquantum", "gcc", "perlbench", "gobmk", "soplex", "bzip2", "leslie3d"}
		return fmt.Sprintf("speccpu:%s", pick(names, v))
	},
	"webserver": func(v int) string { return fmt.Sprintf("webserver:%s", pick([]string{"static", "dynamic", "api"}, v)) },
	"sql": func(v int) string {
		return fmt.Sprintf("%s:%s", pick([]string{"mysql", "postgres"}, v), pick([]string{"oltp", "olap", "mixed"}, v/2))
	},
	"mongodb": func(v int) string { return fmt.Sprintf("mongodb:%s", pick([]string{"rd", "wr", "agg"}, v)) },
	"redis":   func(v int) string { return fmt.Sprintf("redis:v%d", v%4) },
	"storm":   func(v int) string { return fmt.Sprintf("storm:topology%d", v%4) },
	"graph":   func(v int) string { return fmt.Sprintf("graphx:workload%d", v%4) },
}

// TestGeneratorLabelsMatchSprintf pins every generator's label for
// variants 0–239 to its fmt.Sprintf reference.
func TestGeneratorLabelsMatchSprintf(t *testing.T) {
	for _, g := range Generators() {
		ref := refLabels[g.Class]
		if ref == nil {
			t.Fatalf("class %s has no reference label", g.Class)
		}
		for v := 0; v < 240; v++ {
			if got, want := g.Make(stats.NewRNG(1), v).Label, ref(v); got != want {
				t.Fatalf("class %s variant %d: label %q, reference %q", g.Class, v, got, want)
			}
		}
	}
}

func TestDefaultPatternByClass(t *testing.T) {
	rng := stats.NewRNG(10)
	for _, class := range []string{"memcached", "hadoop", "unknown"} {
		p := DefaultPattern(class, rng)
		if p == nil {
			t.Fatalf("nil pattern for %s", class)
		}
		f := p.Factor(500)
		if f < 0 || f > 1 {
			t.Fatalf("pattern factor out of range for %s: %v", class, f)
		}
	}
}

// Property: all load patterns stay within [0, 1] for arbitrary times.
func TestPatternsBoundedProperty(t *testing.T) {
	f := func(seed uint64, rawTick int64) bool {
		rng := stats.NewRNG(seed)
		tick := sim.Tick(rawTick % 1_000_000)
		patterns := []LoadPattern{
			Constant{Level: rng.Range(-0.5, 1.5)},
			Diurnal{Min: rng.Range(0, 0.5), Max: rng.Range(0.5, 1), Period: sim.Tick(rng.Intn(1000))},
			Bursty{OnLevel: rng.Range(0, 1.5), OffLevel: rng.Range(-0.2, 0.5),
				OnTicks: sim.Tick(rng.Intn(100)), OffTicks: sim.Tick(rng.Intn(100))},
			Batch{Ramp: sim.Tick(rng.Intn(50)), Duration: sim.Tick(rng.Intn(2000)), Level: rng.Range(0, 1.2)},
		}
		for _, p := range patterns {
			f := p.Factor(tick)
			if f < 0 || f > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
