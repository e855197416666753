package probe

import (
	"math"
	"testing"

	"bolt/internal/sim"
)

// TestDedupSignaturesEdgeCases pins dedup behaviour at the boundaries the
// property test cannot target: empty input, exact duplicates, and pairs
// sitting exactly on (and just past) the RMS merge tolerance.
func TestDedupSignaturesEdgeCases(t *testing.T) {
	// A single-resource difference d gives RMS² = d²/4 over the four core
	// resources, so d = 2·sigMergeDist lands exactly on the tolerance.
	onBoundary := 2 * sigMergeDist
	cases := []struct {
		name string
		in   []sim.Vector
		want int
	}{
		{"nil", nil, 0},
		{"empty", []sim.Vector{}, 0},
		{"single", []sim.Vector{coreVec(50, 40, 30, 20)}, 1},
		{"exact duplicates", []sim.Vector{
			coreVec(50, 40, 30, 20),
			coreVec(50, 40, 30, 20),
			coreVec(50, 40, 30, 20),
		}, 1},
		{"exactly on tolerance merges", []sim.Vector{
			coreVec(50, 40, 30, 20),
			coreVec(50+onBoundary, 40, 30, 20),
		}, 1},
		{"just past tolerance separates", []sim.Vector{
			coreVec(50, 40, 30, 20),
			coreVec(50+onBoundary+0.01, 40, 30, 20),
		}, 2},
		{"chain merges into running average", []sim.Vector{
			// Each neighbour is within tolerance of the *running average*,
			// so the whole chain collapses to one signature even though the
			// endpoints alone would not merge.
			coreVec(40, 40, 40, 40),
			coreVec(59, 40, 40, 40), // within 2·sigMergeDist of 40; avg now 49.5
			coreVec(69, 40, 40, 40), // within 2·sigMergeDist of 49.5, not of 40
		}, 1},
		{"distinct stay distinct", []sim.Vector{
			coreVec(80, 60, 40, 30),
			coreVec(20, 25, 15, 85),
			coreVec(55, 90, 70, 10),
		}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := dedupSignatures(append([]sim.Vector(nil), tc.in...))
			if len(got) != tc.want {
				t.Fatalf("dedupSignatures(%v) -> %d signatures, want %d", tc.in, len(got), tc.want)
			}
		})
	}
}

func TestDedupSignaturesExactDuplicatesAverageToInput(t *testing.T) {
	sig := coreVec(50, 40, 30, 20)
	out := dedupSignatures([]sim.Vector{sig, sig, sig})
	if len(out) != 1 {
		t.Fatalf("got %d signatures, want 1", len(out))
	}
	for _, r := range sim.CoreResources() {
		if got := out[0].Get(r); math.Abs(got-sig.Get(r)) > 1e-12 {
			t.Errorf("averaged duplicate drifted at %v: %g, want %g", r, got, sig.Get(r))
		}
	}
}

func TestMergeSignaturesDoesNotMutateInputs(t *testing.T) {
	old := []sim.Vector{coreVec(80, 60, 40, 30)}
	new_ := []sim.Vector{coreVec(82, 62, 42, 32)}
	oldCopy, newCopy := old[0], new_[0]
	merged := MergeSignatures(old, new_)
	if len(merged) != 1 {
		t.Fatalf("near-identical signatures should merge, got %d", len(merged))
	}
	if old[0] != oldCopy || new_[0] != newCopy {
		t.Error("MergeSignatures mutated its input slices")
	}
}
