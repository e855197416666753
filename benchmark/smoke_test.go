package main

import (
	"encoding/json"
	"math"
	"regexp"
	"testing"
	"time"
)

// smokeSize shrinks everything a run's length depends on — except the one
// full suite pass behind exper.<id>_s, which is what those metrics mean.
func smokeSize() sizing {
	return sizing{
		suite:        mustExperiments("fig4", "fig5", "fig11", "fig13", "isocost", "defence", "coresidency"),
		fleetServers: 64,
		probeServers: 64,
		warmQueries:  200,
		window:       50,
		probe:        0.02,
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkRun asserts that a run emitted exactly the declared metrics, each
// finite, that no operation failed, and that the driver's JSON line carries
// them with their declared units.
func checkRun(t *testing.T, spec *benchSpec, res *runResult) {
	t.Helper()
	if res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s traced=%v: %d of %d operations failed: %s", res.Workload, res.Traced, res.Failed, res.Attempted, res.Why)
	}
	decls := spec.declared(res.Traced)
	if len(res.Values) != len(decls) {
		t.Errorf("%s traced=%v: %d metrics emitted, %d declared", res.Workload, res.Traced, len(res.Values), len(decls))
	}
	line, err := contractLine(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool             `json:"correct"`
		Attempted *int              `json:"attempted"`
		Failed    *int              `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted == nil || got.Failed == nil {
		t.Errorf("%s: contract line %s", res.Workload, line)
	}
	seen := map[string]bool{}
	for _, d := range decls {
		m, ok := got.Metrics[d.Name]
		switch {
		case seen[d.Name]:
			t.Errorf("metric %s declared twice", d.Name)
		case !metricName.MatchString(d.Name):
			t.Errorf("metric name %q", d.Name)
		case !ok:
			t.Errorf("%s traced=%v: declared metric %s not emitted", res.Workload, res.Traced, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s traced=%v: %s = %v", res.Workload, res.Traced, d.Name, m.Value)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload, timed and traced, at smoke size.
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	sz, out := smokeSize(), t.TempDir()
	const seed = 42

	layers, err := probeLayers(seed, sz)
	if err != nil {
		t.Fatal(err)
	}
	answered := map[string]int{}
	for _, w := range spec.Workloads {
		timed, err := runTimed(w.Name, seed, 0.05, sz)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, spec, timed)
		// A deadline already past: exactly the two pairs every traced run makes.
		traced, err := runTraced(w.Name, seed, time.Now(), sz, out, layers)
		if err != nil {
			t.Fatal(err)
		}
		checkRun(t, spec, traced)
		if traced.Values["trace.spans"] < 4 {
			t.Errorf("%s: %v spans recorded", w.Name, traced.Values["trace.spans"])
		}
		answered[w.Name] = traced.Attempted
	}

	// The suite subset at seed 42 has golden digests, so the check above was
	// not vacuous; a 64-server fleet has none and must read as unchecked.
	if res, _ := runTimed("suite", seed, 0.05, sz); res == nil || res.Unchecked != 0 {
		t.Errorf("suite: reports without a golden digest: %+v", res)
	}
	if res, _ := runTimed("fleet_attack", seed, 0.05, sz); res == nil || res.Unchecked == 0 || res.Failed != 0 {
		t.Errorf("fleet_attack at 64 servers: want unchecked, not failed: %+v", res)
	}

	// Deterministic counts repeat exactly.
	again := layerMetrics{}
	probeFleet(again, seed, sz)
	probeDefence(again, seed, sz)
	for _, name := range []string{"fleet.ticks", "defence.moves", "core.escalation_episodes"} {
		if again[name] != layers[name] {
			t.Errorf("%s = %v, then %v", name, layers[name], again[name])
		}
	}
	if layers["fleet.ticks"] != 432 {
		t.Errorf("fleet.ticks = %v, the fleet experiment's six campaigns tick 432 times", layers["fleet.ticks"])
	}
	traced, err := runTraced("serve_socket", seed, time.Now(), sz, out, layers)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Attempted != answered["serve_socket"] {
		t.Errorf("serve_socket answered %d queries, then %d", answered["serve_socket"], traced.Attempted)
	}
}

// TestGoldenMismatchFails pins the other half of the golden rule: a known
// report that renders differently is a failed operation.
func TestGoldenMismatchFails(t *testing.T) {
	fx, err := newBatchFixture(batchSpecFor("suite", smokeSize()), 42)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	fx.golden[goldenKey(42, 0, "fig4")] = "not-the-digest"
	if o := fx.op(nil, 0, 42); !o.failed {
		t.Error("a report differing from its golden digest passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestSelfTimeIsSpanMinusChildCover(t *testing.T) {
	epoch := time.Now()
	at := func(ns int64) time.Time { return epoch.Add(time.Duration(ns)) }
	tr := &tracer{epoch: epoch}
	tr.add("parent", 0, 0, at(0), at(100))
	tr.add("child", 1, 0, at(10), at(50))
	tr.add("child", 1, 0, at(30), at(70)) // overlaps the first: the cover is 10..70
	totals := tr.finish()
	if tr.spans[0].Self != 40 {
		t.Errorf("parent self = %d ns, want 40", tr.spans[0].Self)
	}
	if c := totals["child"]; c.Count != 2 || c.SelfS != 80e-9 {
		t.Errorf("child totals = %+v", c)
	}
}
