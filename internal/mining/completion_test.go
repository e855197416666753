package mining

import (
	"math"
	"testing"
	"testing/quick"

	"bolt/internal/stats"
)

func trainMatrix(seed uint64, rows, cols int) *Matrix {
	rng := stats.NewRNG(seed)
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Range(0, 100)
	}
	return m
}

// newFoldPlan allocates an empty fold-in plan sized for c, as a
// Recommender's plans hold one.
func newFoldPlan(c *Completer) foldPlan {
	fp := foldPlan{kidx: make([]int, 0, c.n)}
	if !c.cfg.FixedFoldIn {
		fp.chain = make([]float64, foldDoublings*c.cfg.Rank*c.cfg.Rank)
	}
	return fp
}

// complete plans the fold-in for known and runs completeInto into a fresh
// slice.
func complete(c *Completer, observed []float64, known []bool) []float64 {
	out := make([]float64, len(observed))
	fp, s := newFoldPlan(c), newCompleteScratch(c.cfg.Rank, c.n)
	c.planFold(&fp, known, s.tmp)
	c.completeInto(out, observed, known, &fp, &s)
	return out
}

func TestCompleterDeterministic(t *testing.T) {
	train := trainMatrix(1, 30, 10)
	a := NewCompleter(train, CompletionConfig{Seed: 5})
	b := NewCompleter(train, CompletionConfig{Seed: 5})
	obs := make([]float64, 10)
	known := make([]bool, 10)
	obs[2], known[2] = 40, true
	obs[7], known[7] = 60, true
	da, db := complete(a, obs, known), complete(b, obs, known)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, da[i], db[i])
		}
	}
}

// completerPair builds the same factorisation twice: once completing by
// matrix powers (the default) and once by sequential sweeps (FixedFoldIn).
func completerPair(train *Matrix, cfg CompletionConfig) (power, sweeps *Completer) {
	power = NewCompleter(train, cfg)
	cfg.FixedFoldIn = true
	return power, NewCompleter(train, cfg)
}

// stretchRow rescales factor row j of both completers to lr·‖q_j‖² = target
// (lr is the fold-in step, foldLearnRate = 0.01). At 2 and beyond the sweep over
// column j is expansive: the iterates grow geometrically and overflow.
func stretchRow(power, sweeps *Completer, j int, target float64) {
	r := power.cfg.Rank
	qj := power.q.Data[j*r : (j+1)*r]
	scale := math.Sqrt(target / (0.01 * Dot(qj, qj)))
	for k := range qj {
		qj[k] *= scale
	}
	copy(sweeps.q.Data[j*r:(j+1)*r], qj)
}

// boundTol absorbs the last-bit rounding a convex combination of in-range
// values can pick up; completion output must stay within the configured
// [minVal, maxVal] up to this slack.
const boundTol = 1e-9

// checkCompletionContract completes one observation on both fold-in paths
// and asserts completeInto's output contract on each — known entries pass
// through bit for bit, every other entry is finite and inside [0, 100] —
// and that the two paths agree to within tol: a coordinate that clamps on
// one path clamps to the same side on the other, and an unclamped one
// matches to rounding.
func checkCompletionContract(t testing.TB, power, sweeps *Completer, observed []float64, known []bool, tol float64) {
	t.Helper()
	a, b := complete(power, observed, known), complete(sweeps, observed, known)
	for name, out := range map[string][]float64{"matrix powers": a, "sequential sweeps": b} {
		for j, v := range out {
			switch {
			case known[j]:
				if math.Float64bits(v) != math.Float64bits(observed[j]) {
					t.Fatalf("%s: known entry %d rewritten: %g -> %g", name, j, observed[j], v)
				}
			case math.IsNaN(v) || v < -boundTol || v > 100+boundTol:
				t.Fatalf("%s: out[%d] = %g outside [0, 100] (observed=%v known=%v)", name, j, v, observed, known)
			}
		}
	}
	for j := range a {
		if !known[j] && math.Abs(a[j]-b[j]) > tol {
			t.Fatalf("paths disagree at %d: matrix powers %g, sequential sweeps %g (observed=%v known=%v)",
				j, a[j], b[j], observed, known)
		}
	}
}

func TestCompleterPredictionsBoundedProperty(t *testing.T) {
	train := trainMatrix(2, 40, 10)
	power, sweeps := completerPair(train, CompletionConfig{Seed: 1})
	randomObservation := func(rng *stats.RNG) (obs []float64, known []bool) {
		obs = make([]float64, 10)
		known = make([]bool, 10)
		for i := range obs {
			if rng.Bool(0.4) {
				obs[i] = rng.Range(0, 100)
				known[i] = true
			}
		}
		return obs, known
	}
	f := func(seed uint64) bool {
		obs, known := randomObservation(stats.NewRNG(seed))
		checkCompletionContract(t, power, sweeps, obs, known, 1e-6)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}

	// Out-of-domain observations: upstream clamps pressures to [0, 100], but
	// a diverged or overflowed fold-in must still not leak through. The
	// extreme value replaces the first known entry, then every known entry.
	rng := stats.NewRNG(3)
	extremes := []float64{1e150, -1e150, 1e308, -1e308, math.Inf(1), math.Inf(-1), math.NaN()}
	for rep := 0; rep < 40; rep++ {
		base, known := randomObservation(rng)
		for _, x := range extremes {
			for _, all := range []bool{false, true} {
				obs := append([]float64(nil), base...)
				for j := range obs {
					if known[j] {
						obs[j] = x
						if !all {
							break
						}
					}
				}
				checkCompletionContract(t, power, sweeps, obs, known, 1e-6)
			}
		}
	}

	// A factor row long enough that the sweep over its column diverges.
	for _, target := range []float64{2, 3, 50} {
		power, sweeps := completerPair(train, CompletionConfig{Seed: 1})
		const j = 4
		stretchRow(power, sweeps, j, target)
		for rep := 0; rep < 40; rep++ {
			obs, known := randomObservation(rng)
			obs[j], known[j] = rng.Range(0, 100), true
			checkCompletionContract(t, power, sweeps, obs, known, 1e-6)
		}
	}
}

func TestCompleterNoObservations(t *testing.T) {
	train := trainMatrix(3, 20, 10)
	c := NewCompleter(train, CompletionConfig{Seed: 1})
	dense := complete(c, make([]float64, 10), make([]bool, 10))
	// With nothing known the neighbourhood falls back to column means,
	// blended with the (zero-factor) latent prediction: finite, in-range,
	// and non-degenerate.
	for j, v := range dense {
		if v < 0 || v > 100 {
			t.Fatalf("column %d out of range: %v", j, v)
		}
	}
	nonzero := 0
	for _, v := range dense {
		if v > 1 {
			nonzero++
		}
	}
	if nonzero < 5 {
		t.Fatal("observation-free completion should reflect the training means")
	}
}

func TestCompleterLengthMismatchPanics(t *testing.T) {
	train := trainMatrix(4, 10, 10)
	c := NewCompleter(train, CompletionConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	complete(c, make([]float64, 3), make([]bool, 3))
}

func TestNeighbourEstimatePrefersCloseRows(t *testing.T) {
	// Two well-separated clusters; an observation near cluster A must be
	// completed with cluster A's values on the unobserved columns.
	rows := [][]float64{}
	for i := 0; i < 10; i++ {
		rows = append(rows, []float64{80, 80, 80, 10, 10, 10, 10, 10, 10, 10}) // cluster A
		rows = append(rows, []float64{10, 10, 10, 80, 80, 80, 80, 80, 80, 80}) // cluster B
	}
	c := NewCompleter(FromRows(rows), CompletionConfig{Seed: 2})
	obs := make([]float64, 10)
	known := make([]bool, 10)
	obs[0], known[0] = 79, true
	obs[1], known[1] = 81, true
	dense := complete(c, obs, known)
	if dense[2] < 60 {
		t.Fatalf("column 2 should follow cluster A (≈80), got %v", dense[2])
	}
	if dense[5] > 40 {
		t.Fatalf("column 5 should follow cluster A (≈10), got %v", dense[5])
	}
}

func TestRecommenderDetectDeterministic(t *testing.T) {
	rng := stats.NewRNG(6)
	profiles := synthTrain(rng)
	a := NewRecommender(profiles, RecommenderConfig{})
	b := NewRecommender(profiles, RecommenderConfig{})
	obs := []float64{80, 55, 30, 70, 40, 50, 35, 55, 2, 1}
	known := []bool{true, false, false, true, false, true, false, false, false, false}
	ra, rb := a.Detect(obs, known), b.Detect(obs, known)
	if ra.Best().Label != rb.Best().Label || ra.Best().Similarity != rb.Best().Similarity {
		t.Fatal("identical recommenders disagreed")
	}
}

func TestDetectDoesNotMutateInputs(t *testing.T) {
	rng := stats.NewRNG(7)
	rec := NewRecommender(synthTrain(rng), RecommenderConfig{})
	obs := []float64{80, 55, 30, 70, 40, 50, 35, 55, 2, 1}
	known := []bool{true, false, false, true, false, true, false, false, false, false}
	obsCopy := append([]float64(nil), obs...)
	rec.Detect(obs, known)
	for i := range obs {
		if obs[i] != obsCopy[i] {
			t.Fatal("Detect mutated its observation slice")
		}
	}
}

func TestSigmaDecreasing(t *testing.T) {
	rng := stats.NewRNG(9)
	rec := NewRecommender(synthTrain(rng), RecommenderConfig{})
	sigma := rec.Sigma()
	for i := 1; i < len(sigma); i++ {
		if sigma[i] > sigma[i-1] {
			t.Fatalf("singular values not decreasing: %v", sigma)
		}
	}
	// Sigma must be a copy: mutating it must not affect the recommender.
	sigma[0] = -1
	if rec.Sigma()[0] == -1 {
		t.Fatal("Sigma returned a live reference")
	}
}
