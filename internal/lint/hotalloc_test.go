package lint

import "testing"

func TestHotalloc(t *testing.T) {
	runAnalysisTest(t, HotallocAnalyzer, "bolt/internal/mining", "hotalloc")
}

// TestHotcall is the transitive half: the fixture's hot bodies contain no
// allocation construct themselves, only calls whose callees reach one.
func TestHotcall(t *testing.T) {
	runAnalysisTest(t, HotallocAnalyzer, "bolt/internal/hotcall", "hotcall")
}
