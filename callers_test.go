package main_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// keptOracles are exported names under internal/ that only tests call,
// kept on purpose: each is a reference the tests compare a production path
// against, or the only way a test can drive or read the state it checks.
// Keys are "pkg.Name" or "pkg.Recv.Name".
var keptOracles = map[string]string{
	"mining.WeightedPearson":      "Eq. 1 reference for the hoisted queryMoments form",
	"mining.Matrix.Mul":           "checks the SVD's orthogonality, Vᵀ·V = I",
	"mining.Matrix.Row":           "feeds a training row to the SVD projection test",
	"mining.Matrix.FrobeniusNorm": "measures the reconstruction error of the factorisation",
	"mining.SVD.Reconstruct":      "rebuilds the input the factorisation must reproduce",
	"mining.Completer.Predict":    "reconstructs a training cell; tests check the factorisation fits",
	"sim.Server.VMsOnCore":        "per-core loop of the reference observation plane the cached one is compared to",
	"sim.VM.Slots":                "the only read of hyperthread assignment; sim and cluster placement tests check it",
	"fleet.World.Emit":            "drives the barrier's event merge in the fleet ordering tests and BenchmarkFleetTick",
}

// exportedDecl is one exported top-level func, method or type under
// internal/.
type exportedDecl struct {
	key  string // "pkg.Name" or "pkg.Recv.Name"
	name string
	pos  string
}

// topDecl is one top-level declaration of any kind, with the identifiers
// its body mentions; decl is non-nil when it declares an exported
// candidate, and owner is a method's "pkg.Recv".
type topDecl struct {
	decl  *exportedDecl
	owner string
	names []string
}

// TestExportedNamesHaveCallers fails when an exported func, method or type
// under internal/ is mentioned by no non-test Go file in the module other
// than its own declaration. Names match as whole identifiers, so a
// collision (two methods named Add) can hide an orphan but never invent
// one. A mention inside an orphan's declaration, or inside any method of an
// orphaned type, does not keep a name alive, so an orphaned type that only
// orphaned constructors return is reported as well; so are the exported
// methods of an orphaned type, since no caller can hold a value of it.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var decls []topDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		candidate := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, d := range f.Decls {
			decls = append(decls, declsOf(fset, f.Name.Name, candidate, d)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Grow the orphan set to its fixed point: each round drops the mentions
	// made from inside declarations already found orphaned. orphanKey holds
	// the same set by key, so a method can look up its receiver type.
	orphan := map[*exportedDecl]bool{}
	orphanKey := map[string]bool{}
	for {
		mentions := map[string]int{}
		for _, d := range decls {
			if !orphan[d.decl] && !orphanKey[d.owner] {
				for _, n := range d.names {
					mentions[n]++
				}
			}
		}
		grew := false
		for _, d := range decls {
			if d.decl != nil && !orphan[d.decl] && (mentions[d.decl.name] == 0 || orphanKey[d.owner]) {
				orphan[d.decl], orphanKey[d.decl.key], grew = true, true, true
			}
		}
		if !grew {
			break
		}
	}

	var report []string
	for d := range orphan {
		if _, kept := keptOracles[d.key]; !kept {
			report = append(report, d.pos+": "+d.key)
		}
	}
	for key := range keptOracles {
		if !orphanKey[key] {
			report = append(report, "keptOracles: "+key+" is missing or now has a non-test caller; drop it from the list")
		}
	}
	sort.Strings(report)
	for _, r := range report {
		t.Error(r)
	}
}

// declsOf splits one top-level declaration into the units the orphan scan
// weighs: a func or method, or one spec of a const/var/type group. The
// declared name itself, a method's receiver and a method's mentions of its
// own receiver type are not counted as mentions.
func declsOf(fset *token.FileSet, pkg string, candidate bool, d ast.Decl) []topDecl {
	switch d := d.(type) {
	case *ast.FuncDecl:
		td := topDecl{names: identsIn(d, d.Name, d.Recv)}
		key := pkg + "." + d.Name.Name
		if d.Recv != nil {
			recv := recvName(d.Recv.List[0].Type)
			td.owner = pkg + "." + recv
			key = td.owner + "." + d.Name.Name
			td.names = slices.DeleteFunc(td.names, func(n string) bool { return n == recv })
		}
		if candidate && d.Name.IsExported() {
			td.decl = &exportedDecl{key: key, name: d.Name.Name, pos: fset.Position(d.Pos()).String()}
		}
		return []topDecl{td}
	case *ast.GenDecl:
		var out []topDecl
		for _, s := range d.Specs {
			td := topDecl{names: identsIn(s)}
			if s, ok := s.(*ast.TypeSpec); ok {
				td.names = identsIn(s, s.Name)
				if candidate && s.Name.IsExported() {
					td.decl = &exportedDecl{key: pkg + "." + s.Name.Name, name: s.Name.Name, pos: fset.Position(s.Pos()).String()}
				}
			}
			out = append(out, td)
		}
		return out
	}
	return nil
}

// recvName is the bare type name of a method receiver: T, *T, T[P], *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// identsIn lists every identifier under root, skipping the subtrees in
// skip.
func identsIn(root ast.Node, skip ...ast.Node) []string {
	var names []string
	ast.Inspect(root, func(n ast.Node) bool {
		for _, s := range skip {
			if n == s {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			names = append(names, id.Name)
		}
		return true
	})
	return names
}
