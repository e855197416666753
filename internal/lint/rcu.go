package lint

import (
	"go/ast"
	"go/types"
)

// RCUDisciplineAnalyzer pins the serving plane's RCU snapshot contract
// (DESIGN.md "Serving plane"): an atomic.Pointer snapshot field is loaded
// exactly once per request scope — one Load pins one generation, and every
// read in the scope answers from that pin. Concretely, per function body:
//
//   - a second Load of the same field is a re-load: the two pointers may
//     straddle a Swap, splitting one request across two detector generations;
//   - a Load inside a loop re-pins every iteration, same hazard;
//   - calling a function that itself (transitively) Loads the field from a
//     scope that already holds a pin is the interprocedural form of the
//     same bug — the callee may see a newer generation than the caller;
//   - writers must go through the CAS retry idiom (Load + CompareAndSwap,
//     as in Server.Swap, which also advances the version): a raw Store or
//     atomic Swap can lose a concurrent writer's version bump. Functions
//     that CompareAndSwap the field are recognised as writers and exempt
//     from the re-load rules. Stores in constructors — where the receiver
//     is a local built in the same function and not yet shared — are the
//     one legitimate Store and are exempt;
//   - a loaded snapshot pointer assigned into a field or package variable
//     is retained beyond the scope that pinned it; later readers
//     would see an arbitrarily stale generation without any Load at all.
//
// The field-identity granularity comes from the summary layer's storage
// keys ("pkg.Type.field"), so the discipline holds across methods and
// packages, not just within one body.
var RCUDisciplineAnalyzer = &Analyzer{
	Name: "rcudiscipline",
	Doc:  "enforce load-once-per-scope and CAS-only-writes on atomic.Pointer snapshot fields",
	Run:  runRCUDiscipline,
}

// atomicPtrCall matches a call to an atomic.Pointer method and returns the
// method name and the storage key of the receiver ("" for locals).
func atomicPtrCall(pass *Pass, call *ast.CallExpr) (method, fieldKey string, ok bool) {
	fn := funcObj(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || recvTypeName(fn) != "Pointer" {
		return "", "", false
	}
	return fn.Name(), atomicFieldKey(pass, call), true
}

func runRCUDiscipline(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkRCUFunc(pass, fn)
		}
	}
}

func checkRCUFunc(pass *Pass, fn *ast.FuncDecl) {
	// Pass 1: classify every atomic.Pointer operation in the body.
	type ptrOp struct {
		call   *ast.CallExpr
		method string
		key    string
		inLoop bool
	}
	var ops []ptrOp
	casKeys := map[string]bool{}
	loopDepth := 0
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		if root == nil {
			return
		}
		ast.Inspect(root, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.ForStmt:
				walk(node.Init) // runs once, outside the per-iteration scope
				loopDepth++
				walk(node.Cond)
				walk(node.Post)
				walk(node.Body)
				loopDepth--
				return false
			case *ast.RangeStmt:
				walk(node.X) // evaluated once
				loopDepth++
				walk(node.Body)
				loopDepth--
				return false
			case *ast.CallExpr:
				if m, key, ok := atomicPtrCall(pass, node); ok && key != "" {
					ops = append(ops, ptrOp{call: node, method: m, key: key, inLoop: loopDepth > 0})
					if m == "CompareAndSwap" {
						casKeys[key] = true
					}
				}
			}
			return true
		})
	}
	walk(fn.Body)

	// Writers: Store and raw Swap must be the CAS idiom instead — except in
	// constructors, where the receiver is still function-local.
	for _, op := range ops {
		switch op.method {
		case "Store":
			if !constructorLocalRecv(pass, fn, op.call) {
				pass.Reportf(op.call.Pos(),
					"atomic.Pointer %s written with Store; writers must use the Load+CompareAndSwap retry idiom so concurrent swaps cannot lose a generation", shortFieldKey(op.key))
			}
		case "Swap":
			pass.Reportf(op.call.Pos(),
				"atomic.Pointer %s written with Swap; writers must use the Load+CompareAndSwap retry idiom so concurrent swaps cannot lose a generation", shortFieldKey(op.key))
		}
	}

	// Readers: at most one Load per key per scope, none in loops — unless
	// this function is the key's writer (the CAS retry loop re-loads by
	// design).
	loads := map[string]int{}
	for _, op := range ops {
		if op.method != "Load" || casKeys[op.key] {
			continue
		}
		loads[op.key]++
		if loads[op.key] > 1 {
			pass.Reportf(op.call.Pos(),
				"atomic.Pointer %s loaded again in the same scope; load once per request and answer it from that snapshot (a re-load may straddle a Swap)", shortFieldKey(op.key))
			continue
		}
		if op.inLoop {
			pass.Reportf(op.call.Pos(),
				"atomic.Pointer %s loaded inside a loop; hoist the Load so the whole scope answers from one snapshot generation", shortFieldKey(op.key))
		}
	}

	// Retention: a loaded pointer stored into a field or package variable
	// outlives the scope that pinned it.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, rhs := range st.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			m, key, ok := atomicPtrCall(pass, call)
			if !ok || m != "Load" || key == "" {
				continue
			}
			if dst := storageKey(pass, st.Lhs[i]); dst != "" {
				pass.Reportf(st.Lhs[i].Pos(),
					"snapshot loaded from atomic.Pointer %s retained in %s beyond the scope that loaded it; pass the pointer down instead of parking it", shortFieldKey(key), shortFieldKey(dst))
			}
		}
		return true
	})

	// Interprocedural: a scope that pinned a snapshot must not call into a
	// function that re-loads the same field.
	if pass.Summaries == nil {
		return
	}
	for key, n := range loads {
		if n == 0 {
			continue
		}
		k := key
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := funcObj(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			ck := funcKey(callee)
			cf := pass.Summaries.Facts(ck)
			if cf == nil {
				return true
			}
			for _, ptrCAS := range cf.PtrCAS {
				if ptrCAS == k {
					return true // calling the writer (e.g. Swap) is not a re-read
				}
			}
			for _, loaded := range pass.Summaries.TransitivePtrLoads(ck) {
				if loaded == k {
					pass.Reportf(call.Pos(),
						"%s re-loads atomic.Pointer %s inside a scope that already pinned it; pass the loaded snapshot down instead", shortFuncName(ck), shortFieldKey(k))
					return true
				}
			}
			return true
		})
	}
}

// constructorLocalRecv reports whether the receiver chain of an atomic call
// like s.snap.Store(...) roots in a variable declared inside fn's body —
// the object under construction, not yet visible to other goroutines.
func constructorLocalRecv(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	expr := sel.X
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[e]
			if obj == nil {
				obj = pass.TypesInfo.Defs[e]
			}
			if v, ok := obj.(*types.Var); ok && !v.IsField() {
				return v.Pos() >= fn.Body.Pos() && v.Pos() <= fn.Body.End()
			}
			return false
		default:
			return false
		}
	}
}

// shortFieldKey compresses a storage key for diagnostics:
// "bolt/internal/serve.Server.snap" → "serve.Server.snap".
func shortFieldKey(key string) string {
	return shortFuncName(key)
}
