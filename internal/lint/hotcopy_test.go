package lint

import "testing"

func TestHotcopy(t *testing.T) {
	runAnalysisTest(t, HotcopyAnalyzer, "bolt/internal/hotcopy", "hotcopy")
}
