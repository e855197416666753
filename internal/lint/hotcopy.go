package lint

import (
	"go/ast"
	"go/types"
)

// HotcopyAnalyzer reports, inside //bolt:hotpath bodies, a call to a method
// whose value receiver is an array or struct larger than hotcopyLimit
// bytes. Such a call copies the whole receiver first — and when the method
// indexes it with a run-time value the copy cannot be register-allocated
// even after inlining, so it is a memmove per call. sim.Vector.Get was
// exactly this: an 80-byte copy per read on the tick path, a fifth of the
// fleet workloads' CPU time. Give the method a pointer receiver, or index
// the array / read the field directly.
//
// Only the annotated body itself is checked (not its callees), and methods
// of generic types are skipped: their receiver size depends on the
// instantiation.
var HotcopyAnalyzer = &Analyzer{
	Name: "hotcopy",
	Doc:  "forbid calling methods with large by-value array/struct receivers in //bolt:hotpath functions",
	Run:  runHotcopy,
}

// hotcopyLimit is the largest value receiver a hot path may copy: one cache
// line, which the compiler moves with a few register pairs.
const hotcopyLimit = 64

// hotcopySizes fixes the size model, so the diagnostics do not depend on
// the machine boltlint runs on.
var hotcopySizes = types.SizesFor("gc", "amd64")

func runHotcopy(pass *Pass) {
	for _, fn := range hotpathFuncs(pass) {
		if fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := funcObj(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			recv := callee.Type().(*types.Signature).Recv()
			if recv == nil {
				return true
			}
			t := recv.Type()
			if named, ok := t.(*types.Named); ok && (named.TypeParams().Len() > 0 || named.TypeArgs().Len() > 0) {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Array, *types.Struct:
				if size := hotcopySizes.Sizeof(t); size > hotcopyLimit {
					pass.Reportf(call.Pos(),
						"call to %s copies its %d-byte value receiver on a hot path; give the method a pointer receiver, or index the array / read the field directly",
						callee.FullName(), size)
				}
			}
			return true
		})
	}
}
