package mining

import (
	"math"
	"sync"
	"testing"

	"bolt/internal/stats"
)

// fuzzCompleters are built once per process: a small deterministic training
// matrix over 6 columns with pressure-scale values in [0, 100], factorised
// for both fold-in paths (completerPair) — plus a second pair whose factor
// row 0 is stretched to lr·‖q_0‖² = 3, where sweeping column 0 diverges.
var fuzzCompleters struct {
	sync.Once
	power, sweeps                   *Completer
	stretchedPower, stretchedSweeps *Completer
}

const fuzzCols = 6

func buildFuzzCompleters() {
	rng := stats.NewRNG(1701)
	m := NewMatrix(12, fuzzCols)
	for i := range m.Data {
		m.Data[i] = rng.Range(0, 100)
	}
	fc := &fuzzCompleters
	cfg := CompletionConfig{Seed: 7}
	fc.power, fc.sweeps = completerPair(m, cfg)
	fc.stretchedPower, fc.stretchedSweeps = completerPair(m, cfg)
	stretchRow(fc.stretchedPower, fc.stretchedSweeps, 0, 3)
}

// FuzzCompleterBounded feeds arbitrary observation vectors — in the pressure
// domain or far outside it, non-finite included — and known-masks through
// the matrix completer on both fold-in paths and asserts the recommender's
// input contract (checkCompletionContract): every completed entry is finite
// and within the configured bounds, known entries pass through unchanged,
// the all-missing row (the fully degraded fault-plane case) still completes
// in range, and the two paths agree.
func FuzzCompleterBounded(f *testing.F) {
	f.Add(50.0, 60.0, 70.0, 10.0, 20.0, 30.0, uint8(0b111111))
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0)) // all missing
	f.Add(100.0, 100.0, 100.0, 100.0, 100.0, 100.0, uint8(0b000001))
	f.Add(99.9, 0.1, 55.5, 3.25, 80.0, 42.0, uint8(0b101010))
	f.Add(1e150, -1e150, 55.5, 3.25, 80.0, 42.0, uint8(0b000111))
	f.Add(1e308, 1e308, 1e308, -1e308, 1e308, 1e308, uint8(0b011011))
	f.Add(math.Inf(1), 20.0, math.Inf(-1), 40.0, 50.0, 60.0, uint8(0b001111))
	f.Add(math.NaN(), 20.0, 30.0, 40.0, 50.0, math.NaN(), uint8(0b100011))
	f.Fuzz(func(t *testing.T, v0, v1, v2, v3, v4, v5 float64, mask uint8) {
		observed := []float64{v0, v1, v2, v3, v4, v5}
		known := make([]bool, fuzzCols)
		// The paths agree to rounding relative to the fold-in row, which
		// scales with the observations: hold them to 1e-7 of the largest
		// finite known magnitude, never tighter than the pressure domain's.
		scale := 100.0
		for j, v := range observed {
			known[j] = mask&(1<<j) != 0
			if known[j] && !math.IsInf(v, 0) && math.Abs(v) > scale {
				scale = math.Abs(v)
			}
		}
		fc := &fuzzCompleters
		fc.Do(buildFuzzCompleters)
		checkCompletionContract(t, fc.power, fc.sweeps, observed, known, 1e-7*scale)
		// A diverging solve amplifies rounding without limit before it
		// overflows, so there only the output contract is common ground.
		checkCompletionContract(t, fc.stretchedPower, fc.stretchedSweeps, observed, known, math.Inf(1))
	})
}

// pearsonMagCap keeps fuzzed inputs far from float64 overflow: the
// covariance terms are triple products, so magnitudes must stay below
// ~cbrt(MaxFloat64) for intermediate arithmetic to remain finite. 1e90
// leaves the entire plausible numeric space open to the fuzzer.
const pearsonMagCap = 1e90

// FuzzPearsonSymmetry asserts the similarity kernel's algebraic contract
// under arbitrary finite inputs: WeightedPearson is symmetric in its two
// profiles, always lands in [-1, 1], and never returns NaN — the guards
// the detection pipeline relies on when faulted profiles reach it.
func FuzzPearsonSymmetry(f *testing.F) {
	f.Add(10.0, 20.0, 30.0, 40.0, 40.0, 30.0, 20.0, 10.0, 1.0, 2.0, 3.0, 4.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)   // zero variance
	f.Add(5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0)   // zero weights
	f.Add(1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0, -1.0, 1.0, -1.0, 1.0) // mixed-sign weights
	f.Fuzz(func(t *testing.T,
		a0, a1, a2, a3, b0, b1, b2, b3, s0, s1, s2, s3 float64) {
		a := []float64{a0, a1, a2, a3}
		b := []float64{b0, b1, b2, b3}
		sigma := []float64{s0, s1, s2, s3}
		for _, xs := range [][]float64{a, b, sigma} {
			for _, x := range xs {
				if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > pearsonMagCap {
					t.Skip("out of numeric domain")
				}
			}
		}
		r1 := WeightedPearson(a, b, sigma)
		r2 := WeightedPearson(b, a, sigma)
		if math.IsNaN(r1) || r1 < -1 || r1 > 1 {
			t.Fatalf("WeightedPearson(a, b) = %g outside [-1, 1]", r1)
		}
		// The two orders round the same covariance sum through different
		// multiplication groupings, so demand agreement to far below any
		// decision threshold rather than bit equality.
		if math.Abs(r1-r2) > 1e-9 {
			t.Fatalf("asymmetric: WeightedPearson(a,b)=%g, WeightedPearson(b,a)=%g\na=%v b=%v sigma=%v",
				r1, r2, a, b, sigma)
		}
		// The kernel Detect runs must be the reference, bit for bit.
		den := sigma[0] + sigma[1] + sigma[2] + sigma[3]
		if got := pearsonFrom(a, b, sigma, den, momentsOf(a, sigma, den), momentsOf(b, sigma, den)); got != r1 {
			t.Fatalf("pearsonFrom = %g, WeightedPearson = %g\na=%v b=%v sigma=%v", got, r1, a, b, sigma)
		}
		// The unweighted form is the all-ones weighting, symmetric and
		// bounded for the same reason.
		ones := []float64{1, 1, 1, 1}
		p1, p2 := WeightedPearson(a, b, ones), WeightedPearson(b, a, ones)
		if math.IsNaN(p1) || p1 < -1 || p1 > 1 || math.Abs(p1-p2) > 1e-9 {
			t.Fatalf("Pearson asymmetric or out of range: %g vs %g", p1, p2)
		}
	})
}

// fuzzBase is the detector's 120-profile catalog, factorised once per
// process; FuzzDetectMatchesReference reads its memoized views.
var fuzzBase = sync.OnceValue(func() *Base { return NewBase(planCatalog(42), CompletionConfig{}) })

// FuzzDetectMatchesReference holds Detect to the pre-plan reference
// (detectReference) on fuzzed observations: a known mask, ten finite
// observed values, a config — the default, Unweighted, PureCF or
// EnergyFraction 0.5 — and the state of the scratch the query runs on:
// empty, already holding the mask's plan, or full of eight other masks.
// The recommender is the base's memoized view, as every caller of that
// config gets it. The completed pressure and every kept match must equal
// the reference's head, floats by bits. NaN is out of scope: the reference
// leaves NaN similarities in no defined order, and neither the wire nor the
// probe delivers one.
func FuzzDetectMatchesReference(f *testing.F) {
	f.Add(uint16(0b1111111111), 50.0, 60.0, 70.0, 10.0, 20.0, 30.0, 40.0, 80.0, 90.0, 5.0, uint8(0), uint8(0))
	f.Add(uint16(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(1), uint8(1))
	f.Add(uint16(0b0000010011), 99.9, 0.1, 55.5, 3.25, 80.0, 42.0, 7.0, 13.0, 64.0, 100.0, uint8(2), uint8(2))
	f.Add(uint16(0b1010101010), 12.0, 88.0, 0.0, 100.0, 37.5, 61.0, 23.0, 45.0, 5.5, 70.0, uint8(3), uint8(1))
	f.Add(uint16(0b0111000111), -40.0, 250.0, 1e6, 3.0, -1e-3, 42.0, 15.0, 1e12, 8.0, 33.0, uint8(0), uint8(2))
	variants := []RecommenderConfig{{}, {Unweighted: true}, {PureCF: true}, {EnergyFraction: 0.5}}
	f.Fuzz(func(t *testing.T, mask uint16, v0, v1, v2, v3, v4, v5, v6, v7, v8, v9 float64, variant, state uint8) {
		observed := []float64{v0, v1, v2, v3, v4, v5, v6, v7, v8, v9}
		for _, v := range observed {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > pearsonMagCap {
				t.Skip("out of numeric domain")
			}
		}
		rec := fuzzBase().View(variants[int(variant)%len(variants)])
		n := rec.ResourceCount()
		bits := int(mask) % (1 << n)
		known := maskOf(bits, n)
		want := rec.detectReference(observed, known)
		var held [][]bool
		switch state % 3 {
		case 1:
			held = [][]bool{known}
		case 2:
			for i := range planSlots {
				held = append(held, maskOf((bits+1+i)%(1<<n), n))
			}
		}
		if diff := sameHead(rec.detect(scratchHolding(rec, held...), observed, known), want); diff != "" {
			t.Fatalf("mask %010b, config %d, scratch state %d: %s", bits, variant%4, state%3, diff)
		}
	})
}
