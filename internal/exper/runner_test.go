package exper

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"bolt/internal/core"
	"bolt/internal/mining"
	"bolt/internal/workload"
)

// cheapSubset picks experiments that each finish in well under 100 ms so the
// determinism test can afford to run the suite twice.
func cheapSubset(t *testing.T) []Experiment {
	t.Helper()
	ids := []string{"fig4", "fig5", "fig11", "fig13", "isocost", "defence", "coresidency"}
	exps := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q missing from registry", id)
		}
		exps = append(exps, e)
	}
	return exps
}

// TestRunParallelMatchesSerial is the determinism guarantee: the rendered
// reports from a serial and a parallel run must be their seed-42 goldens.
func TestRunParallelMatchesSerial(t *testing.T) {
	for _, parallel := range []int{1, 8} {
		checkGolden(t, "seed-42.txt", renderStdout(t, cheapSubset(t), 42, parallel))
	}
}

// TestRunPreservesOrder: results come back in input order regardless of
// completion order.
func TestRunPreservesOrder(t *testing.T) {
	exps := cheapSubset(t)
	results := Run(exps, 7, 4)
	if len(results) != len(exps) {
		t.Fatalf("got %d results for %d experiments", len(results), len(exps))
	}
	for i, r := range results {
		if r.Experiment.ID != exps[i].ID {
			t.Fatalf("result %d is %q, want %q", i, r.Experiment.ID, exps[i].ID)
		}
		if r.Report == nil {
			t.Fatalf("result %d (%s) has no report", i, r.Experiment.ID)
		}
		if r.Report.ID != exps[i].ID {
			t.Fatalf("result %d report id %q, want %q", i, r.Report.ID, exps[i].ID)
		}
	}
}

func TestRunDegenerateInputs(t *testing.T) {
	if got := Run(nil, 42, 4); len(got) != 0 {
		t.Fatalf("empty experiment list returned %d results", len(got))
	}
	// parallel beyond the experiment count and parallel<=0 must both work.
	exps := cheapSubset(t)[:2]
	if got := Run(exps, 42, 64); len(got) != 2 {
		t.Fatalf("parallel>len returned %d results", len(got))
	}
	if got := Run(exps, 42, 0); len(got) != 2 {
		t.Fatalf("parallel=0 returned %d results", len(got))
	}
}

// TestRunSharesCachedDetector runs six concurrent experiments that each
// train on the standard catalog and checks they all received detectors
// around the same *mining.Recommender from the cache. Under -race this also
// exercises concurrent first-touch of the cache and concurrent reads of the
// shared recommender.
func TestRunSharesCachedDetector(t *testing.T) {
	const n = 6
	var inFlight, peak atomic.Int32
	ptrs := make([]*mining.Recommender, n)
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		exps[i] = Experiment{
			ID:    fmt.Sprintf("probe-%d", i),
			Title: "cache probe",
			Run: func(seed uint64) *Report {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				ptrs[i] = core.TrainCached(workload.TrainingSpecs(seed), core.Config{}).Rec
				// Hold the slot briefly so the workers genuinely overlap.
				time.Sleep(20 * time.Millisecond)
				inFlight.Add(-1)
				return newReport(fmt.Sprintf("probe-%d", i), "cache probe")
			},
		}
	}
	Run(exps, 42, n)
	for i := 1; i < n; i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatalf("experiment %d got a recommender of its own", i)
		}
	}
	if ptrs[0] == nil {
		t.Fatal("no detector was trained")
	}
	if peak.Load() < 4 {
		t.Fatalf("peak concurrency %d, want >=4", peak.Load())
	}
}
