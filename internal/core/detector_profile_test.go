package core_test

import (
	"testing"

	"bolt/internal/core"
	"bolt/internal/stats"
	"bolt/internal/workload"
)

// TestDetectProfileBatchBitExact pins the seam the frozen benchmark still
// calls: for a shared mask, every row of DetectProfileBatch must be
// bit-identical to a solo DetectProfile call on the same observation —
// pressure vector, ranked matches, confidence, and label.
func TestDetectProfileBatchBitExact(t *testing.T) {
	det := core.TrainCached(workload.TrainingSpecs(42), core.Config{})
	n := det.Rec.ResourceCount()
	known := make([]bool, n)
	known[3], known[5], known[7] = true, true, true // LLC, MemBW, NetBW

	rng := stats.NewRNG(17)
	for _, batch := range []int{1, 4, 16, 64} {
		observed := make([][]float64, batch)
		for b := range observed {
			observed[b] = make([]float64, n)
			for j := range observed[b] {
				if known[j] {
					observed[b][j] = stats.Clamp(rng.Range(0, 100), 0, 100)
				}
			}
		}
		got := det.DetectProfileBatch(observed, known)
		if len(got) != batch {
			t.Fatalf("batch %d: got %d results", batch, len(got))
		}
		for b := range got {
			want := det.DetectProfile(observed[b], known)
			if got[b].Confidence != want.Confidence || got[b].Label() != want.Label() ||
				got[b].Unknown() != want.Unknown() {
				t.Fatalf("batch %d row %d: label/confidence diverge from solo path", batch, b)
			}
			for j := range want.Result.Pressure {
				if got[b].Result.Pressure[j] != want.Result.Pressure[j] {
					t.Fatalf("batch %d row %d: pressure[%d] %v != %v",
						batch, b, j, got[b].Result.Pressure[j], want.Result.Pressure[j])
				}
			}
			if len(got[b].Result.Matches) != len(want.Result.Matches) {
				t.Fatalf("batch %d row %d: match count diverges", batch, b)
			}
			for m := range want.Result.Matches {
				if got[b].Result.Matches[m] != want.Result.Matches[m] {
					t.Fatalf("batch %d row %d: match %d diverges", batch, b, m)
				}
			}
		}
	}
}

// TestDetectProfileGracefulDegradation: an empty mask is a pure-completion
// query with confidence 0, which must degrade to UnknownLabel rather than
// guess — the contract the serving plane's fault-injection tests rely on.
func TestDetectProfileGracefulDegradation(t *testing.T) {
	det := core.TrainCached(workload.TrainingSpecs(42), core.Config{})
	n := det.Rec.ResourceCount()
	pd := det.DetectProfile(make([]float64, n), make([]bool, n))
	if pd.Confidence != 0 {
		t.Fatalf("empty-mask confidence = %v, want 0", pd.Confidence)
	}
	if !pd.Unknown() || pd.Label() != core.UnknownLabel {
		t.Fatalf("empty-mask detection did not degrade: unknown=%v label=%q",
			pd.Unknown(), pd.Label())
	}

	// A fully observed canonical probe profile is high-confidence.
	obs := make([]float64, n)
	known := make([]bool, n)
	for j := range known {
		known[j] = true
		obs[j] = 40
	}
	pd = det.DetectProfile(obs, known)
	if pd.Confidence != 1 {
		t.Fatalf("fully observed confidence = %v, want 1", pd.Confidence)
	}
}
