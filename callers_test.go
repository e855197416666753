package main_test

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"

	"bolt/internal/lint"
)

// keptOracles ("pkg.Name", "pkg.Recv.Name" or "pkg.Type.Field") are exported
// names under internal/ that only tests use, kept on purpose: each is a
// reference a test compares a production path against, or the only way a
// test can drive or read the state it checks.
var keptOracles = map[string]string{
	"mining.WeightedPearson":        "Eq. 1 reference for the hoisted queryMoments form",
	"mining.Matrix.Mul":             "checks the SVD's orthogonality, Vᵀ·V = I",
	"mining.Matrix.Row":             "feeds a training row to the SVD projection test",
	"mining.Matrix.FrobeniusNorm":   "measures the reconstruction error of the factorisation",
	"mining.SVD.Reconstruct":        "rebuilds the input the factorisation must reproduce",
	"mining.Completer.Predict":      "reconstructs a training cell; tests check the factorisation fits",
	"sim.Server.VMsOnCore":          "per-core loop of the reference observation plane the cached one is compared to",
	"sim.VM.Slots":                  "the only read of hyperthread assignment, as ascending slot indices; sim and cluster placement tests check it",
	"sim.Server.Config":             "the reference observation plane reads visibility and core count through it",
	"mining.Matrix.T":               "transposes V for the orthogonality check",
	"mining.Recommender.Base":       "the only read of which trained base a view shares; the TrainCached memo tests check it",
	"serve.Server.Snapshot":         "the only read of which detector a Swap installed; the swap tests check it",
	"attack.CoResidencyResult.Host": "the only read of which host the attack confirmed; its test checks it is the victim's",
}

// TestExportedNamesHaveCallers fails when an exported package-level name or
// method under internal/ has no use in non-test code outside its own
// declaration, or an exported struct field there is never read (selected
// other than as an assignment's or ++/--'s target). lint.Load checks the
// non-test files; a package sees its imports through export data, whose
// objects are not its own, so names are keyed by path, receiver and name. A
// method is also used when its type has the method names of an interface
// type some non-test expression has, or of error or fmt.Stringer. Uses
// inside an orphan, or a method of an orphaned type, keep nothing alive.
func TestExportedNamesHaveCallers(t *testing.T) {
	pkgs, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	var uses [][3]string                                                    // the using declaration's key and owner, the name used
	cands := map[string][2]string{}                                         // candidate → position, owner (receiver type or struct)
	ifaces := map[string][]string{"Error": {"Error"}, "String": {"String"}} // used interfaces' method names
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				var ms []string
				for i := range it.NumMethods() {
					ms = append(ms, it.Method(i).Name())
				}
				ifaces[strings.Join(ms, " ")] = ms
			}
		}
	}
	for _, p := range pkgs {
		add := func(key, owner string, id *ast.Ident) string {
			if !strings.HasPrefix(p.Types.Path(), "bolt/internal/") || !id.IsExported() {
				return ""
			}
			cands[key] = [2]string{p.Fset.Position(id.Pos()).String(), owner}
			return key
		}
		// use records what the top-level declaration root uses.
		use := func(key, owner string, root ast.Node) {
			written := map[ast.Expr]bool{}
			ast.Inspect(root, func(n ast.Node) bool {
				used := ""
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						written[ast.Unparen(l)] = true
					}
				case *ast.IncDecStmt:
					written[ast.Unparen(n.X)] = true
				case *ast.Ident:
					used = objKey(p.Info.Uses[n])
				case *ast.SelectorExpr:
					if s := p.Info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !written[n] {
						t := s.Recv() // on a promoted field, the last embedded field's struct
						for _, i := range s.Index()[:len(s.Index())-1] {
							if p, ok := t.(*types.Pointer); ok {
								t = p.Elem()
							}
							t = t.Underlying().(*types.Struct).Field(i).Type()
						}
						used = typeKey(t) + "." + s.Obj().Name()
					}
				}
				if used != "" && used != key && used != owner {
					uses = append(uses, [3]string{key, owner, used})
				}
				return true
			})
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if d, ok := d.(*ast.FuncDecl); ok {
					fn := p.Info.Defs[d.Name].(*types.Func)
					owner := strings.TrimSuffix(objKey(fn), "."+fn.Name()) // a func's package is no candidate
					use(add(objKey(fn), owner, d.Name), owner, d)
					continue
				}
				for _, s := range d.(*ast.GenDecl).Specs {
					key := ""
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							key = add(objKey(p.Info.Defs[id]), "", id)
						}
					case *ast.TypeSpec:
						tn := p.Info.Defs[s.Name].(*types.TypeName)
						key = add(objKey(tn), "", s.Name)
						if st, ok := s.Type.(*ast.StructType); ok && key != "" {
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									add(key+"."+id.Name, key, id)
								}
							}
						}
						ms, mset := map[string]string{}, types.NewMethodSet(types.NewPointer(tn.Type()))
						for i := range mset.Len() {
							ms[mset.At(i).Obj().Name()] = objKey(mset.At(i).Obj())
						}
						for _, iface := range ifaces {
							if !slices.ContainsFunc(iface, func(m string) bool { return ms[m] == "" }) {
								for _, m := range iface {
									uses = append(uses, [3]string{"", "", ms[m]}) // an interface may call it
								}
							}
						}
					}
					use(key, "", s)
				}
			}
		}
	}

	// Grow the orphan set to its fixed point, dropping uses made by orphans.
	orphan := map[string]bool{}
	for grew := true; grew; {
		used := map[string]int{}
		for _, u := range uses {
			if !orphan[u[0]] && !orphan[u[1]] {
				used[u[2]]++
			}
		}
		grew = false
		for k, c := range cands {
			if !orphan[k] && (used[k] == 0 || orphan[c[1]]) {
				orphan[k], grew = true, true
			}
		}
	}
	var report []string
	for k := range keptOracles {
		if !orphan[k] {
			report = append(report, "keptOracles: "+k+" is missing or now has a non-test caller; drop it from the list")
		}
		delete(orphan, k)
	}
	for k := range orphan {
		report = append(report, cands[k][0]+": "+k)
	}
	slices.Sort(report)
	for _, r := range report {
		t.Error(r)
	}
}

// objKey is "pkg.Name" for a package-level name and "pkg.Recv.Name" for a
// method, "bolt/internal/" trimmed from the path; "" for anything else.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			return typeKey(recv.Type()) + "." + fn.Name()
		}
	} else if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return strings.TrimPrefix(obj.Pkg().Path(), "bolt/internal/") + "." + obj.Name()
}

// typeKey is objKey of a named type or a pointer to one, "" otherwise.
func typeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return objKey(n.Obj())
	}
	return ""
}
