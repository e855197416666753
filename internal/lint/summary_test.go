package lint

// Tests for the interprocedural summary layer: cross-package fixed-point
// propagation (interface dispatch and recursive cycles, via the two-package
// hotcallx fixture) and fan-out parameter learning.

import (
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// chainImporter resolves the testdata module's internal imports from
// already-checked packages and everything else from the fallback importer —
// the multi-package equivalent of testdataImporter.
type chainImporter struct {
	local    map[string]*types.Package
	fallback types.Importer
}

func (c chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.local[path]; ok {
		return p, nil
	}
	return c.fallback.Import(path)
}

// loadHotcallx type-checks the two-package hotcallx fixture in dependency
// order (leaf, then root against leaf's checked types) and returns both.
func loadHotcallx(t *testing.T) (leaf, root *Package) {
	t.Helper()
	fset := token.NewFileSet()

	leafDir := filepath.Join("testdata", "hotcallx", "leaf")
	leafImp := testdataImporter(t, fset, leafDir, []string{"leaf.go"})
	leafPkg, err := checkPackage(fset, leafImp, "bolt/internal/hotx/leaf", leafDir, []string{"leaf.go"})
	if err != nil {
		t.Fatalf("type-checking leaf: %v", err)
	}

	rootDir := filepath.Join("testdata", "hotcallx", "root")
	local := map[string]*types.Package{"bolt/internal/hotx/leaf": leafPkg.Types}
	rootImp := chainImporter{local: local, fallback: externalImportsOf(t, fset, rootDir, []string{"root.go"}, local)}
	rootPkg, err := checkPackage(fset, rootImp, "bolt/internal/hotx/root", rootDir, []string{"root.go"})
	if err != nil {
		t.Fatalf("type-checking root: %v", err)
	}
	return leafPkg, rootPkg
}

// externalImportsOf builds an importer for the dir's imports that are NOT
// provided locally (goList cannot resolve the fixture's synthetic paths).
func externalImportsOf(t *testing.T, fset *token.FileSet, dir string, goFiles []string, local map[string]*types.Package) types.Importer {
	t.Helper()
	external := []string{}
	for _, name := range goFiles {
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if _, ok := local[p]; !ok {
				external = append(external, p)
			}
		}
	}
	exports := map[string]string{}
	if len(external) > 0 {
		listed, err := goList(".", external)
		if err != nil {
			t.Fatalf("resolving external imports: %v", err)
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	return exportImporter(fset, exports)
}

// TestHotcallCrossPackage is the cross-package fixed-point golden test:
// a hot call through an interface whose allocating implementation lives in
// another package, plus intra- and cross-function recursion that must not
// be reported.
func TestHotcallCrossPackage(t *testing.T) {
	leaf, root := loadHotcallx(t)
	diags := Run([]*Package{leaf, root}, []*Analyzer{HotallocAnalyzer})

	sources := map[string][]byte{}
	for k, v := range leaf.Sources {
		sources[k] = v
	}
	for k, v := range root.Sources {
		sources[k] = v
	}
	matchWants(t, diags, sources)
}

// TestSummaryFixedPoint spot-checks the propagated facts directly.
func TestSummaryFixedPoint(t *testing.T) {
	leaf, root := loadHotcallx(t)
	s := BuildSummaries([]*Package{leaf, root})

	checks := []struct {
		key   string
		alloc bool
	}{
		{"(bolt/internal/hotx/leaf.Alloc).Measure", true},
		{"(bolt/internal/hotx/leaf.Clean).Measure", false},
		{"(bolt/internal/hotx/leaf.Measurer).Measure", true}, // via Alloc
		{"bolt/internal/hotx/root.Reduce", true},             // via the interface
		{"bolt/internal/hotx/leaf.MaxDepth", false},          // self-recursion
		{"bolt/internal/hotx/root.mutual", false},            // mutual recursion
		{"bolt/internal/hotx/root.recurse", false},
		{"bolt/internal/hotx/root.Probe", false},
	}
	for _, c := range checks {
		if s.funcs[c.key] == nil {
			t.Errorf("no summary for %s", c.key)
			continue
		}
		if got := s.TransitivelyAllocates(c.key); got != c.alloc {
			t.Errorf("TransitivelyAllocates(%s) = %v, want %v", c.key, got, c.alloc)
		}
	}
}

// TestFanOutParamPropagation pins the wrapper discovery: the barriermerge
// fixture's fanAll forwards its body parameter to par.FanOut, so the fixed
// point must mark parameter 1 of fanAll as a fan-out body.
func TestFanOutParamPropagation(t *testing.T) {
	pkg := loadFixture(t, "bolt/internal/exper", "barriermerge")
	s := BuildSummaries([]*Package{pkg})

	if got := s.FanOutParams("bolt/internal/par.FanOut"); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("FanOutParams(par.FanOut) = %v, want [3]", got)
	}
	if got := s.FanOutParams("bolt/internal/exper.fanAll"); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("FanOutParams(fanAll) = %v, want [1] (learned through par.FanOut)", got)
	}
}
