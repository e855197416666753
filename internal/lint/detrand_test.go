package lint

import "testing"

func TestDetrand(t *testing.T) {
	runAnalysisTest(t, DetrandAnalyzer, "bolt/internal/sim", "detrand")
}

// TestDetrandIgnoresOtherPackages checks the package gate: the same source,
// type-checked under a path outside the deterministic set, produces no
// detrand diagnostics. (The fixture's //bolt:nolint detrand then suppresses
// nothing, so the unused-suppression report legitimately fires — filter to
// detrand's own output.)
func TestDetrandIgnoresOtherPackages(t *testing.T) {
	diags, _ := analyzeTestdata(t, DetrandAnalyzer, "bolt/cmd/boltexp", "detrand")
	for _, d := range diags {
		if d.Analyzer != DetrandAnalyzer.Name {
			continue
		}
		t.Errorf("unexpected diagnostic outside deterministic packages: %s: %s", d.Position, d.Message)
	}
}

// TestNolintWithoutReason pins the suppression contract: a bare
// //bolt:nolint with no `-- reason` suppresses nothing, and the malformed
// directive is itself reported under the pseudo-analyzer name "nolint".
func TestNolintWithoutReason(t *testing.T) {
	runAnalysisTest(t, DetrandAnalyzer, "bolt/internal/exper", "nolintreason")
}
