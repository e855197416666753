package core

import (
	"fmt"
	"math"
	"slices"
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

// searchCase is one episode of the Candidates corpus, before any step.
type searchCase struct {
	det       *Detector
	faults    bool  // a fault plane at rate 0.3 on the adversary
	dedicated bool  // a dedicated-core host
	victims   int   // co-residents placed until the host is full
	bursty    uint8 // bit vi set: victim vi runs a bursty load, else a constant one
}

// episode builds c's host and episode: a 4-vCPU adversary, then c.victims
// co-residents of random specs, sizes and load levels drawn from rng.
func (c searchCase) episode(t testing.TB, rng *stats.RNG) *Episode {
	var pcfg probe.Config
	if c.faults {
		pcfg.Faults = fault.Config{Rate: 0.3}
	}
	adv := probe.NewAdversary("adv", 4, pcfg, rng.Split())
	s := sim.NewServer("s0", sim.ServerConfig{DedicatedCores: c.dedicated})
	if err := s.Place(adv.VM); err != nil {
		t.Fatal(err)
	}
	gens := workload.Generators()
	for vi := 0; vi < c.victims; vi++ {
		spec := gens[rng.Intn(len(gens))].Make(rng.Split(), rng.Intn(24))
		var load workload.LoadPattern = workload.Constant{Level: rng.Range(0.7, 1)}
		if c.bursty>>vi&1 == 1 {
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
	return c.det.NewEpisode(s, adv)
}

// searchDetectors are the corpus's detectors: the shutter and MRC rungs
// each disabled on one.
func searchDetectors() []*Detector {
	specs := workload.TrainingSpecs(100)
	return []*Detector{
		TrainCached(specs, Config{}),
		TrainCached(specs, Config{DisableShutter: true}),
		TrainCached(specs, Config{DisableMRC: true}),
	}
}

// searchCorpus calls visit on each episode of the seeded Candidates corpus
// after each of steps 1–6: 1–4 victims at constant or bursty load, shared
// and dedicated-core hosts, the shutter and MRC rungs each disabled on a
// third of the detectors, and a fault plane at rate 0.3 on a third of the
// adversaries.
func searchCorpus(t testing.TB, episodes int, visit func(ep, step int, e *Episode)) {
	dets := searchDetectors()
	rng := stats.NewRNG(2525)
	for ep := 0; ep < episodes; ep++ {
		c := searchCase{
			det:       dets[ep%len(dets)],
			faults:    ep%3 == 1,
			dedicated: ep%4 == 3,
			victims:   1 + rng.Intn(4),
			bursty:    uint8(rng.Intn(16)),
		}
		e := c.episode(t, rng)
		start := sim.Tick(rng.Intn(1000))
		for step := 1; step <= 6; step++ {
			e.Step(start)
			visit(ep, step, e)
		}
	}
}

// TestCandidatesMatchesReference holds the search to the pre-PR-25 one
// (candidatesReference) bit for bit over searchCorpus at every maxVictims
// 1–5. Both searches run on the same episode, the new one reusing its
// scratch across all those calls.
func TestCandidatesMatchesReference(t *testing.T) {
	episodes := 500
	if testing.Short() {
		episodes = 60
	}
	var searched, anchored, shutter, mrc, multi int
	searchCorpus(t, episodes, func(ep, step int, e *Episode) {
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
	})
	t.Logf("%d searches: %d anchored, %d with the shutter term, %d with the MRC term, %d multi-component answers",
		searched, anchored, shutter, mrc, multi)
	// The corpus must reach every term of the score, or it proves little.
	for name, n := range map[string]int{"anchored": anchored, "shutter": shutter, "mrc": mrc, "multi-component": multi} {
		if n == 0 {
			t.Errorf("corpus produced no %s search", name)
		}
	}
}

// FuzzCandidatesMatchReference holds Candidates to candidatesReference bit
// for bit on fuzzed episodes: the RNG seed, the victim count and which of
// them are bursty, the fault plane, the host's core sharing, the start
// tick, the number of steps, maxVictims and the detector config.
func FuzzCandidatesMatchReference(f *testing.F) {
	f.Add(uint64(2525), uint8(3), uint8(5), false, false, uint16(0), uint8(6), uint8(3), uint8(0))
	f.Add(uint64(7), uint8(4), uint8(15), true, false, uint16(417), uint8(4), uint8(5), uint8(1))
	f.Add(uint64(42), uint8(2), uint8(0), false, true, uint16(999), uint8(2), uint8(2), uint8(2))
	f.Add(uint64(1), uint8(1), uint8(1), true, true, uint16(60), uint8(1), uint8(4), uint8(0))
	dets := searchDetectors()
	f.Fuzz(func(t *testing.T, seed uint64, victims, bursty uint8, faults, dedicated bool, start uint16, steps, maxVictims, det uint8) {
		c := searchCase{
			det:       dets[int(det)%len(dets)],
			faults:    faults,
			dedicated: dedicated,
			victims:   1 + int(victims)%4,
			bursty:    bursty,
		}
		rng := stats.NewRNG(seed)
		e := c.episode(t, rng)
		maxV := 1 + int(maxVictims)%5
		for step := 1; step <= 1+int(steps)%6; step++ {
			e.Step(sim.Tick(start))
			if err := sameResults(e.Candidates(maxV), e.candidatesReference(maxV)); err != nil {
				t.Fatalf("step %d maxVictims %d: %v", step, maxV, err)
			}
		}
	})
}

// scanAll is search with no trial skipped: every trial is scored. Before
// scoring one it calls visit with the trial and the score the trial must
// beat.
func scanAll(m *mixSearch, maxVictims int, visit func(trial []int, thr float64)) ([]int, float64) {
	var set []int
	for ai := 0; ai < m.na; ai++ {
		set = append(set, m.anchorLists[ai][0])
	}
	if len(set) == 0 {
		set = append(set, m.free[0])
	}
	best := m.score(set)
	accept := kAcceptRatio
	if m.na == 0 {
		accept = 0.45
	}
	for len(set) < maxVictims {
		extBest, extScore := -1, best
		for _, i := range m.free {
			trial := append(slices.Clone(set), i)
			visit(trial, extScore)
			if s := m.score(trial); s < extScore {
				extBest, extScore = i, s
			}
		}
		if extBest < 0 || extScore >= best*accept {
			break
		}
		set = append(set, extBest)
		best = extScore
	}
	for pass := 0; pass < 2; pass++ {
		improved := false
		for si := range set {
			alts := m.free
			if si < m.na {
				alts = m.anchorLists[si]
			}
			for _, alt := range alts {
				if alt == set[si] {
					continue
				}
				trial := slices.Clone(set)
				trial[si] = alt
				visit(trial, best)
				if s := m.score(trial); s < best {
					copy(set, trial)
					best = s
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return set, best
}

// TestFitBoundBelowSumFit: over searchCorpus, every trial the search meets
// has fitBound ≤ sumFit, a trial the bound rules out does not beat its
// threshold, scoreBelow skips exactly the trials the bound rules out and
// takes exactly the others that beat the threshold, search ends where
// scanAll does, bit for bit, and some trials are skipped, so the check is
// not vacuous. A trial with a NaN profile row has
// a NaN bound and is scored.
func TestFitBoundBelowSumFit(t *testing.T) {
	episodes := 150
	if testing.Short() {
		episodes = 40
	}
	var trials, skipped int
	var nanChecked bool
	searchCorpus(t, episodes, func(ep, step int, e *Episode) {
		for maxV := 2; maxV <= 5; maxV++ {
			if e.uncore.knownCount() == 0 {
				return
			}
			e.Candidates(maxV)
			m := &e.mix
			gotSet, gotScore := m.search(maxV)
			gotSet = slices.Clone(gotSet)
			wantSet, wantScore := scanAll(m, maxV, func(trial []int, thr float64) {
				trials++
				fit, bound := m.sumFit(trial), m.fitBound(trial)
				if !(bound <= fit) {
					t.Fatalf("episode %d step %d maxVictims %d: set %v has fitBound %v above sumFit %v", ep, step, maxV, trial, bound, fit)
				}
				// A skipped trial returns 0 unscored; a scored one its score.
				skip, want := m.withTerms(bound, trial) >= thr, m.score(trial)
				if skip {
					skipped++
					if want < thr {
						t.Fatalf("episode %d step %d maxVictims %d: set %v is ruled out, but its score %v beats %v", ep, step, maxV, trial, want, thr)
					}
				}
				got, ok := m.scoreBelow(trial, thr)
				if skip && (ok || got != 0) || !skip && (ok != (want < thr) || math.Float64bits(got) != math.Float64bits(want)) {
					t.Fatalf("episode %d step %d maxVictims %d: set %v against %v (ruled out: %v): scoreBelow = %v, %v; its score is %v",
						ep, step, maxV, trial, thr, skip, got, ok, want)
				}
			})
			if !slices.Equal(gotSet, wantSet) || math.Float64bits(gotScore) != math.Float64bits(wantScore) {
				t.Fatalf("episode %d step %d maxVictims %d: search ends at %v (%v), scoring every trial at %v (%v)",
					ep, step, maxV, gotSet, gotScore, wantSet, wantScore)
			}
			if !nanChecked && len(gotSet) > 1 {
				nanChecked = true
				i, k := gotSet[0], 0
				row := &m.rows[k*m.n+i]
				saved := *row
				*row = math.NaN()
				if b := m.fitBound(gotSet); !math.IsNaN(b) {
					t.Errorf("a NaN profile row gives fitBound %v, want NaN", b)
				}
				// Against 0 any number would be skipped; a skip returns 0.
				if s, ok := m.scoreBelow(gotSet, 0); ok || !math.IsNaN(s) {
					t.Errorf("a set with a NaN profile row: scoreBelow = %v, %v, want it scored to NaN", s, ok)
				}
				*row = saved
			}
		}
	})
	t.Logf("%d of %d trials skipped (%.1f%%)", skipped, trials, 100*float64(skipped)/float64(trials))
	if skipped == 0 {
		t.Error("no trial was skipped: the bound check is vacuous")
	}
	if !nanChecked {
		t.Error("corpus produced no multi-component search to check the NaN row on")
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
