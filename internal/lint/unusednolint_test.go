package lint

import "testing"

// TestUnusedNolint verifies the stale-suppression report: the fixture's
// Fresh function still produces the detrand diagnostic its comment
// excuses, while Stale's comment matches nothing and is reported.
func TestUnusedNolint(t *testing.T) {
	runAnalysisTest(t, DetrandAnalyzer, "bolt/internal/sim", "unusednolint")
}

// TestUnusedNolintNeedsFullRunSet pins the judging precondition: when the
// analyzers a suppression names did not run, staleness cannot be decided
// and nothing is reported — a run over an analyzer subset, as every
// per-analyzer test is, must not flag suppressions for analyzers it
// skipped.
func TestUnusedNolintNeedsFullRunSet(t *testing.T) {
	diags, _ := analyzeTestdata(t, HotcopyAnalyzer, "bolt/internal/sim", "unusednolint")
	for _, d := range diags {
		t.Errorf("unexpected diagnostic from a run that skipped detrand: %s", d)
	}
}
