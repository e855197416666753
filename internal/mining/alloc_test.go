package mining

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"

	"bolt/internal/stats"
)

// Allocation regression tests for the detection hot path. The parallel
// experiment runner calls Detect millions of times per suite; the scratch
// pools and precomputed centred profiles exist so those calls stay off the
// allocator. These tests pin the budgets so a regression fails loudly in
// `go test ./...` rather than showing up as a benchmark drift.

func TestDetectAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are inflated by design")
	}
	rng := stats.NewRNG(21)
	rec := NewRecommender(synthTrain(rng), RecommenderConfig{})
	obs := []float64{80, 55, 30, 70, 40, 50, 35, 55, 2, 1}
	known := []bool{true, false, false, true, false, true, false, false, false, false}
	// hit repeats one mask, so every call reads the plan the first built;
	// cycle walks 16 masks, more than a scratch holds plans for, so every
	// call builds its plan over the scratch's oldest.
	cycle := make([][]bool, 16)
	for m := range cycle {
		cycle[m] = make([]bool, len(known))
		for j := range cycle[m] {
			cycle[m][j] = (m+1)>>j&1 == 1
		}
	}
	for name, masks := range map[string][][]bool{"hit": {known}, "cycle": cycle} {
		call := 0
		detect := func() {
			rec.Detect(obs, masks[call%len(masks)])
			call++
		}
		for range masks {
			detect() // fill the pooled scratch's plans
		}
		allocs := testing.AllocsPerRun(100, detect)
		// Result struct + Pressure copy + the MatchesKept-entry Matches head.
		// A cold scratch-pool refill (GC can empty the pool mid-run) only
		// nudges the average.
		if allocs > 4 {
			t.Errorf("%s: Detect allocated %.2f objects/op, budget is 4", name, allocs)
		}
	}
}

// TestCompleteIntoAllocationFree covers every fold-in solve completeInto can
// reach, and planning the fold-in: the chain on the default path, and under
// FixedFoldIn foldSolve at the default rank and at another.
func TestCompleteIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation counts are inflated by design")
	}
	train := trainMatrix(22, 30, 10)
	obs := make([]float64, 10)
	known := make([]bool, 10)
	obs[2], known[2] = 40, true
	obs[7], known[7] = 60, true
	dst := make([]float64, 10)
	for name, cfg := range map[string]CompletionConfig{
		"foldChain":       {Seed: 3},
		"foldSolve/rank6": {Seed: 3, FixedFoldIn: true},
		"foldSolve/rank4": {Seed: 3, FixedFoldIn: true, Rank: 4},
	} {
		c := NewCompleter(train, cfg)
		fp, s := newFoldPlan(c), newCompleteScratch(c.cfg.Rank, c.n)
		allocs := testing.AllocsPerRun(100, func() {
			c.planFold(&fp, known, s.tmp)
			c.completeInto(dst, obs, known, &fp, &s)
		})
		if allocs > 0 {
			t.Errorf("%s: planFold + completeInto allocated %.2f objects/op, want 0", name, allocs)
		}
	}
}

// hotpathBudget maps every //bolt:hotpath-annotated function in this
// package to the allocation-budget test that pins its behaviour. The
// boltlint hotalloc analyzer checks annotated functions statically; this
// registry guarantees the dynamic side — each annotated function is
// exercised under an AllocsPerRun budget, directly or via its sole caller.
var hotpathBudget = map[string]string{
	"Detect":            "TestDetectAllocationBudget",
	"detect":            "TestDetectAllocationBudget",
	"prepare":           "TestDetectAllocationBudget",
	"planFor":           "TestDetectAllocationBudget",
	"buildPlan":         "TestDetectAllocationBudget",
	"insertRanked":      "TestDetectAllocationBudget",
	"proximity":         "TestDetectAllocationBudget",
	"momentsOf":         "TestDetectAllocationBudget",
	"pearsonFrom":       "TestDetectAllocationBudget",
	"Dot":               "TestDetectAllocationBudget",
	"Axpy":              "TestCompleteIntoAllocationFree",
	"sgdStep":           "TestCompleteIntoAllocationFree",
	"foldStep":          "TestCompleteIntoAllocationFree",
	"foldSolve":         "TestCompleteIntoAllocationFree",
	"planFold":          "TestCompleteIntoAllocationFree",
	"foldChain":         "TestCompleteIntoAllocationFree",
	"foldApply":         "TestCompleteIntoAllocationFree",
	"matVec":            "TestCompleteIntoAllocationFree",
	"matMul":            "TestCompleteIntoAllocationFree",
	"completeInto":      "TestCompleteIntoAllocationFree",
	"neighbourEstimate": "TestCompleteIntoAllocationFree",
	"gaussKernel":       "TestCompleteIntoAllocationFree",
}

// TestHotpathAnnotationsCovered fails when a //bolt:hotpath annotation is
// added without extending the budget registry above (or when the registry
// goes stale). Keeping the two in lockstep means "annotated" always implies
// "has an allocation budget".
func TestHotpathAnnotationsCovered(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	annotated := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Doc == nil {
					continue
				}
				for _, c := range fn.Doc.List {
					if strings.TrimSpace(c.Text) == "//bolt:hotpath" {
						annotated[fn.Name.Name] = true
					}
				}
			}
		}
	}
	if len(annotated) == 0 {
		t.Fatal("no //bolt:hotpath annotations found in package mining")
	}
	for name := range annotated {
		if hotpathBudget[name] == "" {
			t.Errorf("hot-path function %s has no allocation budget; add it to hotpathBudget and cover it in a budget test", name)
		}
	}
	for name := range hotpathBudget {
		if !annotated[name] {
			t.Errorf("hotpathBudget entry %s is stale: no //bolt:hotpath annotation on such a function", name)
		}
	}
}
