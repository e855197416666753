package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MaporderAnalyzer flags `for range` over a map whose body does
// order-sensitive work. Go randomises map iteration order per run, so a
// float accumulation, a slice append, or an output write inside the loop
// makes the result depend on the iteration order — the exact class of bug
// that silently breaks the byte-identical seed-42 suite.
//
// Order-insensitive bodies are accepted: integer/boolean accumulation
// (exact associative arithmetic), keyed writes whose index involves the
// iteration variables (each key is visited once, so the final state is
// order-independent), min/max tracking, and deletes. An append whose slice
// is sorted immediately after the loop is also accepted — the
// collect-then-sort idiom used throughout internal/exper.
var MaporderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-sensitive work inside map iteration",
	Run:  runMaporder,
}

// orderSensitiveSinks are method names that append to their receiver's
// state in call order (tables, figures, writers); calling one inside a map
// iteration bakes the random order into output. Keyed setters (Set) are
// deliberately absent: writing distinct cells is order-independent.
var orderSensitiveSinks = map[string]bool{
	"Add": true, "AddRow": true, "AddSeries": true, "Append": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func runMaporder(pass *Pass) {
	for _, f := range pass.Files {
		// Map each range statement to its enclosing block so the
		// followed-by-sort exemption can inspect the next statements.
		following := map[*ast.RangeStmt][]ast.Stmt{}
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, st := range block.List {
				if rs, ok := st.(*ast.RangeStmt); ok {
					following[rs] = block.List[i+1:]
				}
			}
			return true
		})

		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			checkMapRange(pass, rs, following[rs])
			return true
		})
	}
}

// checkMapRange inspects one map-range body for order-sensitive effects.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, after []ast.Stmt) {
	loopVars := rangeVarObjects(pass, rs)

	var appendFound bool
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is flagged on its own visit; its body's
			// effects belong to it.
			if st != rs {
				if tv, ok := pass.TypesInfo.Types[st.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						return false
					}
				}
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rs, st, loopVars, &appendFound)
		case *ast.CallExpr:
			checkMapRangeCall(pass, rs, st)
		}
		return true
	})

	if appendFound && !followedBySort(pass, after) {
		pass.Reportf(rs.Pos(),
			"map iteration appends to a slice that is not sorted immediately after the loop; the element order changes run to run")
	}
}

// checkMapRangeAssign flags order-sensitive assignments in a map-range body.
func checkMapRangeAssign(pass *Pass, rs *ast.RangeStmt, st *ast.AssignStmt, loopVars map[types.Object]bool, appendFound *bool) {
	for i, lhs := range st.Lhs {
		// Keyed writes indexed by the iteration variables touch each key
		// once; the final state is order-independent.
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && usesAny(pass, idx.Index, loopVars) {
			continue
		}
		lhsType := pass.TypesInfo.TypeOf(lhs)
		if lhsType == nil {
			continue
		}
		basic, isBasic := lhsType.Underlying().(*types.Basic)
		orderSensitiveKind := isBasic && basic.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0
		reason := "floating-point arithmetic does not associate"
		if isBasic && basic.Info()&types.IsString != 0 {
			reason = "string concatenation depends on order"
		}

		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if orderSensitiveKind {
				pass.Reportf(st.Pos(),
					"%s accumulation inside map iteration is order-sensitive (%s); iterate sorted keys instead", basic.String(), reason)
			}
		case token.ASSIGN, token.DEFINE:
			if i < len(st.Rhs) {
				rhs := st.Rhs[i]
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
					if declaredOutside(pass, lhs, rs) {
						*appendFound = true
					}
					continue
				}
				// Self-referencing scalar update, e.g. x = x + v.
				if orderSensitiveKind && st.Tok == token.ASSIGN && mentions(pass, rhs, lhs) {
					pass.Reportf(st.Pos(),
						"%s accumulation inside map iteration is order-sensitive (%s); iterate sorted keys instead", basic.String(), reason)
				}
			}
		}
	}
}

// checkMapRangeCall flags calls to order-sensitive sinks in a map-range body.
func checkMapRangeCall(pass *Pass, rs *ast.RangeStmt, call *ast.CallExpr) {
	fn := funcObj(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if !orderSensitiveSinks[fn.Name()] {
		return
	}
	// Package-level print helpers (fmt.Fprintf) and append-style methods on
	// variables declared outside the loop both serialise the random order.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if recv := pass.TypesInfo.TypeOf(sel.X); recv != nil {
			if !declaredOutside(pass, sel.X, rs) {
				return // sink is loop-local; its final state dies with the iteration
			}
		}
	}
	pass.Reportf(call.Pos(),
		"%s inside map iteration emits in random order; collect into a slice and sort before writing", fn.Name())
}

// rangeVarObjects returns the types objects of the range's key/value vars.
func rangeVarObjects(pass *Pass, rs *ast.RangeStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// usesAny reports whether expr references any of the given objects.
func usesAny(pass *Pass, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// mentions reports whether rhs references the same object as lhs.
func mentions(pass *Pass, rhs, lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return false
	}
	return usesAny(pass, rhs, map[types.Object]bool{obj: true})
}

// declaredOutside reports whether expr's root identifier was declared
// outside the range statement (so mutations survive the loop).
func declaredOutside(pass *Pass, expr ast.Expr, rs *ast.RangeStmt) bool {
	root := rootIdent(expr)
	if root == nil {
		return true // field/index chains on non-ident roots: assume outer
	}
	obj := pass.TypesInfo.Uses[root]
	if obj == nil {
		obj = pass.TypesInfo.Defs[root]
	}
	if obj == nil {
		return true
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// rootIdent walks selector/index chains down to the base identifier.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		return false
	}
	b, ok := obj.(*types.Builtin)
	return ok && b.Name() == "append"
}

// followedBySort reports whether one of the next few statements after the
// loop sorts a slice — the collect-then-sort idiom.
func followedBySort(pass *Pass, after []ast.Stmt) bool {
	limit := 3
	if len(after) < limit {
		limit = len(after)
	}
	for _, st := range after[:limit] {
		sorted := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := funcObj(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "sort", "slices":
					sorted = true
				}
			}
			return !sorted
		})
		if sorted {
			return true
		}
	}
	return false
}
