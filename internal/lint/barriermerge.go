package lint

import (
	"go/ast"
	"go/types"
)

// BarrierMergeAnalyzer enforces the merge rule DESIGN.md states for the
// deterministic fan-outs but nothing checked until now: results produced
// under par.FanOut / par.FanOutBlocks must land in index-addressed slots
// and be folded by an index-ordered loop after the barrier. Any merge that
// observes completion order — sends on a shared channel, appends to a
// shared slice, writes into a shared map, accumulating into a shared
// scalar — reintroduces schedule-dependence and breaks the byte-identical
// contract at every -parallel setting.
//
// Fan-out entry points come from the summary layer: par.FanOut and
// par.FanOutBlocks are seeded, and wrappers that forward their body
// parameter (exper.forEachEpisode and any future ones) are
// discovered by the fixed point — so the rule follows the helpers as the
// codebase grows, without a per-wrapper list.
//
// Inside a fan-out body literal, writes are judged by their destination:
//
//	slots[i] = v          // OK: index-addressed, i derives from the body's
//	                      //     own parameters — deterministic placement
//	ch <- v               // reported: receive order is completion order
//	shared = append(...)  // reported: append order is completion order
//	m[key] = v            // reported: map writes race and iteration order
//	                      //           varies anyway
//	sum += v              // reported: float accumulation order changes the
//	                      //           bits; merge after the barrier instead
var BarrierMergeAnalyzer = &Analyzer{
	Name: "barriermerge",
	Doc:  "require index-addressed result slots in par.FanOut bodies; forbid order-sensitive merges",
	Run:  runBarrierMerge,
}

func runBarrierMerge(pass *Pass) {
	if pass.Summaries == nil {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := funcObj(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			for _, p := range pass.Summaries.FanOutParams(funcKey(callee)) {
				if p >= len(call.Args) {
					continue
				}
				if lit, ok := ast.Unparen(call.Args[p]).(*ast.FuncLit); ok {
					checkFanOutBody(pass, lit)
				}
			}
			return true
		})
	}
}

// checkFanOutBody inspects one fan-out body literal for order-sensitive
// result publication. "Outer" means declared outside the literal (captured
// state shared across workers); everything declared inside the literal is
// worker-private and unrestricted.
func checkFanOutBody(pass *Pass, lit *ast.FuncLit) {
	outer := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
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
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			if node != lit {
				return true // nested literals share the same capture judgement
			}

		case *ast.SendStmt:
			if outer(node.Chan) || isSharedSelector(pass, node.Chan) {
				pass.Reportf(node.Pos(),
					"send on a shared channel from a fan-out body; receive order is completion order — write an index-addressed slot and merge after the barrier")
			}

		case *ast.IncDecStmt:
			if sharedScalarDest(pass, node.X, outer) {
				pass.Reportf(node.Pos(),
					"increment of shared %s from a fan-out body races and orders by completion; accumulate per-index and fold after the barrier", types.ExprString(node.X))
			}

		case *ast.AssignStmt:
			checkFanOutAssign(pass, node, outer)
		}
		return true
	})
}

// checkFanOutAssign judges one assignment inside a fan-out body.
func checkFanOutAssign(pass *Pass, st *ast.AssignStmt, outer func(ast.Expr) bool) {
	for i, lhs := range st.Lhs {
		dst := ast.Unparen(lhs)

		// Index-addressed writes: allowed into slices/arrays (the slot
		// discipline), reported into maps (no deterministic slots).
		if ix, ok := dst.(*ast.IndexExpr); ok {
			base := pass.TypesInfo.TypeOf(ix.X)
			if base == nil {
				continue
			}
			if _, isMap := base.Underlying().(*types.Map); isMap {
				pass.Reportf(st.Pos(),
					"write into shared map %s from a fan-out body; map writes race — write an index-addressed slice slot and build the map after the barrier", types.ExprString(ix.X))
			}
			continue
		}

		// Shared scalar/slice destinations.
		if !sharedScalarDest(pass, dst, outer) {
			continue
		}
		if st.Tok.String() != "=" {
			pass.Reportf(st.Pos(),
				"compound assignment to shared %s from a fan-out body orders by completion; accumulate into an index-addressed slot and fold after the barrier", types.ExprString(dst))
			continue
		}
		// Plain `=`: appends to shared slices are the classic
		// completion-order merge; any other shared write is last-writer-wins.
		if i < len(st.Rhs) {
			if call, ok := ast.Unparen(st.Rhs[i]).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						pass.Reportf(st.Pos(),
							"append to shared %s from a fan-out body; element order is completion order — write results[i] and merge by index after the barrier", types.ExprString(dst))
						continue
					}
				}
			}
		}
		pass.Reportf(st.Pos(),
			"write to shared %s from a fan-out body races across workers; write an index-addressed slot instead", types.ExprString(dst))
	}
}

// sharedScalarDest reports whether dst denotes state shared across workers:
// an identifier declared outside the literal, or a field/global selector.
// Blank and worker-local destinations are fine.
func sharedScalarDest(pass *Pass, dst ast.Expr, outer func(ast.Expr) bool) bool {
	switch e := ast.Unparen(dst).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return false
		}
		return outer(e)
	case *ast.SelectorExpr:
		return isSharedSelector(pass, e)
	case *ast.StarExpr:
		return outer(e.X) // *p where p captured: writes through a shared pointer
	}
	return false
}

// isSharedSelector reports whether expr is a field selector (captured
// struct state) — always shared from a fan-out body's perspective.
func isSharedSelector(pass *Pass, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	return ok && obj.IsField()
}
