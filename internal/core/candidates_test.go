package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"bolt/internal/fault"
	"bolt/internal/mining"
	"bolt/internal/probe"
	"bolt/internal/sim"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// sameResults reports the first difference between two Candidates answers,
// comparing every float by its bits.
func sameResults(got, want []*mining.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for ri := range want {
		g, w := got[ri], want[ri]
		if len(g.Matches) != len(w.Matches) {
			return fmt.Errorf("result %d: %d matches, want %d", ri, len(g.Matches), len(w.Matches))
		}
		for mi := range w.Matches {
			gm, wm := g.Matches[mi], w.Matches[mi]
			if gm.Label != wm.Label || gm.Class != wm.Class ||
				math.Float64bits(gm.Similarity) != math.Float64bits(wm.Similarity) {
				return fmt.Errorf("result %d match %d: %+v, want %+v", ri, mi, gm, wm)
			}
		}
		if len(g.Pressure) != len(w.Pressure) {
			return fmt.Errorf("result %d: %d pressures, want %d", ri, len(g.Pressure), len(w.Pressure))
		}
		for pi := range w.Pressure {
			if math.Float64bits(g.Pressure[pi]) != math.Float64bits(w.Pressure[pi]) {
				return fmt.Errorf("result %d pressure %d: %v, want %v", ri, pi, g.Pressure[pi], w.Pressure[pi])
			}
		}
	}
	return nil
}

// TestCandidatesMatchesReference holds the search to the pre-PR-25 one
// (candidatesReference) bit for bit over a seeded corpus of episodes:
// 1–4 victims at constant or bursty load, shared and dedicated-core hosts,
// the shutter and MRC rungs each disabled on a third of the detectors, a
// fault plane at rate 0.3 on a third of the adversaries, and every
// maxVictims 1–5 after each of steps 1–6. Both searches run on the same
// episode, the new one reusing its scratch across all those calls.
func TestCandidatesMatchesReference(t *testing.T) {
	episodes := 500
	if testing.Short() {
		episodes = 60
	}
	specs := workload.TrainingSpecs(100)
	dets := []*Detector{
		TrainCached(specs, Config{}),
		TrainCached(specs, Config{DisableShutter: true}),
		TrainCached(specs, Config{DisableMRC: true}),
	}
	gens := workload.Generators()
	rng := stats.NewRNG(2525)
	var searched, anchored, shutter, mrc, multi int
	for ep := 0; ep < episodes; ep++ {
		det := dets[ep%len(dets)]
		var pcfg probe.Config
		if ep%3 == 1 {
			pcfg.Faults = fault.Config{Rate: 0.3}
		}
		adv := probe.NewAdversary("adv", 4, pcfg, rng.Split())
		s := sim.NewServer("s0", sim.ServerConfig{DedicatedCores: ep%4 == 3})
		if err := s.Place(adv.VM); err != nil {
			t.Fatal(err)
		}
		victims := 1 + rng.Intn(4)
		for vi := 0; vi < victims; vi++ {
			spec := gens[rng.Intn(len(gens))].Make(rng.Split(), rng.Intn(24))
			var load workload.LoadPattern = workload.Constant{Level: rng.Range(0.7, 1)}
			if rng.Bool(0.5) {
				load = workload.Bursty{
					OnLevel:  rng.Range(0.85, 1.0),
					OffLevel: rng.Range(0.2, 0.45),
					OnTicks:  sim.Tick(rng.Range(40, 160)),
					OffTicks: sim.Tick(rng.Range(20, 60)),
					Offset:   sim.Tick(rng.Intn(100)),
				}
			}
			app := workload.NewApp(spec, load, rng.Uint64())
			vm := &sim.VM{ID: fmt.Sprintf("v%d", vi), VCPUs: 1 + rng.Intn(3), App: app}
			if err := s.Place(vm); err != nil {
				break // host full
			}
		}
		e := det.NewEpisode(s, adv)
		start := sim.Tick(rng.Intn(1000))
		for step := 1; step <= 6; step++ {
			e.Step(start)
			for maxV := 1; maxV <= 5; maxV++ {
				want := e.candidatesReference(maxV)
				got := e.Candidates(maxV)
				if err := sameResults(got, want); err != nil {
					t.Fatalf("episode %d step %d maxVictims %d: %v", ep, step, maxV, err)
				}
				if maxV == 1 || e.uncore.knownCount() == 0 {
					continue
				}
				searched++
				if e.mix.na > 0 {
					anchored++
				}
				if e.mix.shutterOn {
					shutter++
				}
				if e.mix.mrcSlope >= 0 {
					mrc++
				}
				if len(got) > 1 {
					multi++
				}
			}
		}
	}
	t.Logf("%d searches: %d anchored, %d with the shutter term, %d with the MRC term, %d multi-component answers",
		searched, anchored, shutter, mrc, multi)
	// The corpus must reach every term of the score, or it proves little.
	for name, n := range map[string]int{"anchored": anchored, "shutter": shutter, "mrc": mrc, "multi-component": multi} {
		if n == 0 {
			t.Errorf("corpus produced no %s search", name)
		}
	}
}

// TestTopByScoreMatchesFullSort checks the bounded top-k against a full
// sort of every (key, index) pair, both the pre-PR-25 insertion sort and
// sort.SliceStable, on keys with heavy ties, all-equal and all-NaN rows,
// for k below, at and above the row length.
func TestTopByScoreMatchesFullSort(t *testing.T) {
	rng := stats.NewRNG(25)
	var m mixSearch
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(120)
		keys := make([]float64, n)
		switch trial % 4 {
		case 0: // heavy ties
			for i := range keys {
				keys[i] = float64(rng.Intn(4))
			}
		case 1: // continuous, with a few repeats and infinities
			for i := range keys {
				keys[i] = rng.Range(-5, 5)
				if i > 0 && rng.Bool(0.2) {
					keys[i] = keys[rng.Intn(i)]
				}
				if rng.Bool(0.02) {
					keys[i] = math.Inf(1)
				}
			}
		case 2: // one value
			for i := range keys {
				keys[i] = 7
			}
		case 3: // all NaN
			for i := range keys {
				keys[i] = math.NaN()
			}
		}
		for _, k := range []int{1, 8, 40, n, n + 5} {
			want := topByScore(make([]indexScore, n), k, func(i int) float64 { return keys[i] })
			got := m.topByScore(make([]int, k), keys, k)
			stable := make([]int, n)
			for i := range stable {
				stable[i] = i
			}
			sort.SliceStable(stable, func(a, b int) bool {
				x, y := keys[stable[a]], keys[stable[b]]
				return x < y || (x == y && stable[a] < stable[b])
			})
			if len(stable) > k {
				stable = stable[:k]
			}
			if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(got) != fmt.Sprint(stable) {
				t.Fatalf("trial %d n=%d k=%d: got %v, insertion sort %v, sort.SliceStable %v", trial, n, k, got, want, stable)
			}
		}
	}
}

// TestCandidatesAllocations pins the search's allocations: after an
// episode's first call its scratch is warm, and a call allocates only the
// results it returns — the returned slice, plus per component of a
// decomposed answer the Result, its Pressure copy and its one-entry
// Matches. The single-victim answer is the memoised Detect result, so that
// path allocates only the slice.
func TestCandidatesAllocations(t *testing.T) {
	d := trainedDetector(t)
	adv := probe.NewAdversary("adv", 4, probe.Config{}, stats.NewRNG(25))
	s := mixHost(t, adv, workload.VictimSpecs(204, 3), 3)
	e := d.NewEpisode(s, adv)
	for it := 0; it < 6; it++ {
		e.Step(0)
	}
	for _, maxV := range []int{1, 2, 3, 5} {
		out := e.Candidates(maxV) // warm the scratch
		budget := 1.0
		if maxV > 1 && len(out) > 0 && out[0] != e.memoRes {
			budget = float64(1 + 3*len(out))
		}
		allocs := testing.AllocsPerRun(50, func() { out = e.Candidates(maxV) })
		if allocs > budget {
			t.Errorf("Candidates(%d) allocated %.1f objects per call for %d results, budget %.0f", maxV, allocs, len(out), budget)
		}
	}
	// The decomposition path must actually have been measured.
	if out := e.Candidates(3); len(out) < 2 {
		t.Fatalf("fixture episode decomposed into %d component(s); want a multi-tenant answer", len(out))
	}
}
