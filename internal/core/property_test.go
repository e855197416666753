package core

import (
	"math"
	"testing"

	"bolt/internal/stats"
	"bolt/internal/workload"
)

// probeVectors returns a deterministic set of pressure vectors spanning the
// detection input space: victim profiles disjoint from training plus a few
// synthetic corners.
func probeVectors(n int) [][]float64 {
	var out [][]float64
	for _, s := range workload.VictimSpecs(4242, n) {
		out = append(out, s.Base.Slice())
	}
	zero := make([]float64, len(out[0]))
	full := make([]float64, len(out[0]))
	for j := range full {
		full[j] = 100
	}
	return append(out, zero, full)
}

// simTieTol is the similarity margin below which two training profiles are
// considered tied for the purposes of the reorder-invariance property:
// reordering the training rows reorders floating-point summations (SVD
// iterations, means), so scores can drift by strictly-rounding amounts and
// genuinely tied labels may swap.
const simTieTol = 1e-9

// TestLabelInvariantUnderTrainingReorder asserts that the detector's answer
// is a property of the training *set*, not the training *sequence*: after
// shuffling the spec slice, every probe vector must either keep its label
// or have been sitting on an exact score tie.
func TestLabelInvariantUnderTrainingReorder(t *testing.T) {
	specs := workload.TrainingSpecs(100)
	shuffled := make([]workload.Spec, len(specs))
	rng := stats.NewRNG(99)
	for i, p := range rng.Perm(len(specs)) {
		shuffled[i] = specs[p]
	}
	d1 := Train(specs, Config{})
	d2 := Train(shuffled, Config{})
	allKnown := make([]bool, d1.Rec.ResourceCount())
	for j := range allKnown {
		allKnown[j] = true
	}

	for vi, v := range probeVectors(24) {
		r1 := d1.Rec.Detect(v, allKnown)
		r2 := d2.Rec.Detect(v, allKnown)
		b1, b2 := r1.Best(), r2.Best()
		if math.Abs(b1.Similarity-b2.Similarity) > simTieTol {
			t.Fatalf("vector %d: best similarity moved under reorder: %v (%s) vs %v (%s)",
				vi, b1.Similarity, b1.Label, b2.Similarity, b2.Label)
		}
		if b1.Label == b2.Label {
			continue
		}
		// Different label is only legitimate on an exact tie: the runner-up
		// must score within tolerance of the winner.
		if len(r1.Matches) < 2 || len(r2.Matches) < 2 {
			t.Fatalf("vector %d: label changed with no runner-up: %s vs %s", vi, b1.Label, b2.Label)
		}
		if math.Abs(r1.Matches[0].Similarity-r1.Matches[1].Similarity) > simTieTol {
			t.Fatalf("vector %d: label flipped without a tie: %s (%v) vs %s (%v), runner-up gap %v",
				vi, b1.Label, b1.Similarity, b2.Label, b2.Similarity,
				r1.Matches[0].Similarity-r1.Matches[1].Similarity)
		}
	}
}
