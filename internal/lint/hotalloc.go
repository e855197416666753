package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotallocAnalyzer is the static complement to the allocation-budget tests
// in internal/mining/alloc_test.go: a //bolt:hotpath function must be
// allocation-free, in its own body and in everything it calls. allocSites
// is the one model of "what allocates" — escaping composite literals,
// unguarded make/new, appends without capacity provenance, escaping
// closures, interface boxing of non-pointer values, and calls into the
// knownAllocating table. hotalloc reports every such site in an annotated
// body; the summary layer (summary.go) records each function's first
// unsuppressed site, and a call from a hot body to a function that reaches
// one is reported at the call with the full chain. Interface calls resolve
// to every implementation in the analyzed packages: if any implementation
// allocates, the call is reported (a hot path cannot know which one it
// will get).
//
// The checks are necessarily approximations of escape analysis, so the
// analyzer errs on the side of reporting and relies on //bolt:nolint with a
// reason for the deliberate allocations (e.g. a documented per-call Result);
// a suppressed site does not poison its callers' summaries. Two idioms are
// recognised as allocation-free and accepted without annotation: sites
// under a lazy-init or capacity guard (`if buf == nil`, `if cap(buf) < n`),
// and append to a slice reset with `buf = buf[:0]` earlier in the function.
var HotallocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocation constructs in //bolt:hotpath functions and in the callees they reach",
	Run:  runHotalloc,
}

// knownAllocating are functions that allocate on every call, keyed by
// funcKey, with the hot-path alternative. The stdlib rows are facts about
// bodies the analyzed packages do not contain; the repo rows carry a fix
// hint for convenience helpers that have an in-package allocation-free form.
var knownAllocating = map[string]string{
	"bolt/internal/sim.AllResources":        "loop over Resource(0)..NumResources instead",
	"bolt/internal/sim.CoreResources":       "loop over the resource indices directly",
	"bolt/internal/sim.UncoreResources":     "loop over the resource indices directly",
	"(*bolt/internal/sim.Server).VMs":       "iterate s.vms directly in package sim",
	"(*bolt/internal/sim.Server).VMsOnCore": "iterate s.vms with occupiesCore",
	"(*bolt/internal/sim.VM).Slots":         "test vm.threads directly in package sim",
	"(*bolt/internal/sim.VM).Cores":         "test vm.cores directly in package sim",
	"(*bolt/internal/stats.RNG).Perm":       "use RNG.PermInto with a reused buffer",

	"fmt.Sprintf":  offHotPath,
	"fmt.Sprint":   offHotPath,
	"fmt.Sprintln": offHotPath,
	"fmt.Errorf":   offHotPath,
	"fmt.Fprintf":  offHotPath,
	"fmt.Fprint":   offHotPath,
	"fmt.Fprintln": offHotPath,
	"fmt.Printf":   offHotPath,
	"fmt.Println":  offHotPath,
	"fmt.Appendf":  offHotPath,

	"errors.New": "return a package-level sentinel error",

	"strconv.Itoa":        offHotPath,
	"strconv.FormatFloat": offHotPath,
	"strconv.FormatInt":   offHotPath,
	"strconv.Quote":       offHotPath,

	"strings.Repeat":     offHotPath,
	"strings.Join":       offHotPath,
	"strings.Split":      offHotPath,
	"strings.Fields":     offHotPath,
	"strings.Replace":    offHotPath,
	"strings.ReplaceAll": offHotPath,
	"strings.ToUpper":    offHotPath,
	"strings.ToLower":    offHotPath,

	"sort.Slice":       offHotPath,
	"sort.SliceStable": offHotPath,
}

// offHotPath is the hint for the stdlib rows, which have no drop-in form.
const offHotPath = "do it off the hot path or write into a reused buffer"

func runHotalloc(pass *Pass) {
	for _, fn := range hotpathFuncs(pass) {
		if fn.Body == nil {
			continue
		}
		allocSites(pass, fn, func(pos token.Pos, desc, advice string) {
			pass.Reportf(pos, "%s%s", desc, advice)
		})
	}
}

// allocSites is the single decision of what allocates. It walks fn's body
// in source order and calls emit for every construct that reaches the
// allocator and is not under a lazy-init/capacity guard: desc names the
// construct (it is what a transitive chain ends in), advice completes the
// in-body diagnostic. With pass.Summaries set, a call to a function that
// transitively allocates is a site too.
func allocSites(pass *Pass, fn *ast.FuncDecl, emit func(pos token.Pos, desc, advice string)) {
	info := pass.TypesInfo
	parent := parentMap(fn.Body)
	guarded := guardedRanges(fn.Body)
	provenanced := capacityProvenanced(pass, fn.Body)
	closures := localClosures(pass, fn.Body)
	var selfKey string
	if f, ok := info.Defs[fn.Name].(*types.Func); ok {
		selfKey = funcKey(f)
	}

	site := func(n ast.Node, desc, advice string) {
		for _, r := range guarded {
			if n.Pos() >= r[0] && n.End() <= r[1] {
				return
			}
		}
		emit(n.Pos(), desc, advice)
	}
	// boxed reports arg when storing it in an interface allocates: concrete,
	// not pointer-shaped, and not a compile-time constant (constant data is
	// materialised in static memory by the compiler).
	boxed := func(arg ast.Expr, what string) {
		tv, ok := info.Types[arg]
		if !ok || tv.Value != nil || tv.Type == nil {
			return
		}
		switch u := tv.Type.Underlying().(type) {
		case *types.Interface:
			return // interface-to-interface, no box
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			return // pointer-shaped, stored directly in the interface word
		case *types.Basic:
			if u.Kind() == types.UnsafePointer || u.Info()&types.IsUntyped != 0 {
				return
			}
		}
		site(arg, "interface "+what+" boxes "+types.TypeString(tv.Type, types.RelativeTo(pass.Pkg)),
			" on a hot path; keep the value concrete or pass a pointer")
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CompositeLit:
			// Slice and map literals always allocate; struct/array literals
			// when their address is taken.
			t := info.TypeOf(node)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				site(node, "composite slice literal", " allocates on a hot path")
			case *types.Map:
				site(node, "composite map literal", " allocates on a hot path")
			default:
				if u, ok := parent[node].(*ast.UnaryExpr); ok && u.Op == token.AND {
					site(node, "&"+types.TypeString(t, types.RelativeTo(pass.Pkg))+" composite literal",
						" escapes to the heap on a hot path")
				}
			}

		case *ast.FuncLit:
			// Immediately invoked literals are inlined; one bound to a local
			// is judged by that variable's uses (the Ident case).
			if call, ok := parent[node].(*ast.CallExpr); ok && call.Fun == node {
				return true
			}
			for _, l := range closures {
				if l == node {
					return true
				}
			}
			site(node, "function literal", " on a hot path allocates its closure; hoist it or pass state explicitly")

		case *ast.Ident:
			// Any use of a local closure other than calling it means the
			// closure escapes (and therefore allocates its context).
			obj := info.Uses[node]
			if _, local := closures[obj]; !local {
				return true
			}
			if call, ok := parent[node].(*ast.CallExpr); ok && call.Fun == node {
				return true
			}
			site(node, "closure "+obj.Name()+" escapes",
				" its defining hot-path function; its captured variables move to the heap")

		case *ast.AssignStmt:
			if len(node.Lhs) != len(node.Rhs) {
				return true
			}
			for i, lhs := range node.Lhs {
				if isIface(info.TypeOf(lhs)) {
					boxed(node.Rhs[i], "assignment")
				}
			}

		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new":
						site(node, b.Name(), " allocates on a hot path; reuse a buffer or guard it as a lazy init (if buf == nil / if cap(buf) < n)")
					case "append":
						// Accepted when the destination has capacity provenance
						// in this function (reset via buf[:0], sized with make,
						// or a slice expression inline); anything else is a
						// potential grow-and-copy.
						if len(node.Args) == 0 {
							return true
						}
						dst := ast.Unparen(node.Args[0])
						if _, ok := dst.(*ast.SliceExpr); !ok && !provenanced[types.ExprString(dst)] {
							site(node, "append without capacity provenance",
								" on a hot path; pre-size the buffer (make with capacity, or reset with buf = buf[:0])")
						}
					case "panic":
						for _, arg := range node.Args {
							boxed(arg, "panic argument")
						}
					}
					return true
				}
			}
			if tv, ok := info.Types[node.Fun]; ok && tv.IsType() {
				if isIface(tv.Type) && len(node.Args) == 1 {
					boxed(node.Args[0], "conversion")
				}
				return true
			}
			if callee := funcObj(info, node); callee != nil {
				key := funcKey(callee)
				if hint, known := knownAllocating[key]; known {
					site(node, key, " allocates its result on every call; "+hint)
				} else if key != selfKey && pass.Summaries != nil && pass.Summaries.TransitivelyAllocates(key) {
					site(node, "call on a hot path allocates transitively: "+shortFuncName(key)+" → "+pass.Summaries.AllocChain(key), "")
				}
			}
			// Boxing of call arguments into interface parameters.
			ft := info.TypeOf(node.Fun)
			if ft == nil {
				return true
			}
			sig, ok := ft.Underlying().(*types.Signature)
			if !ok {
				return true
			}
			params := sig.Params()
			for i, arg := range node.Args {
				var pt types.Type
				switch {
				case sig.Variadic() && i >= params.Len()-1:
					if node.Ellipsis.IsValid() {
						continue // slice passed through, no per-element boxing
					}
					pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
				case i < params.Len():
					pt = params.At(i).Type()
				}
				if isIface(pt) {
					boxed(arg, "argument")
				}
			}
		}
		return true
	})
}

// isIface reports whether t (nil allowed) is an interface type.
func isIface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// parentMap records each node's parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// guardedRanges returns the position ranges of if-bodies whose condition is
// a lazy-init or capacity check (mentions nil, cap, or len) — allocations
// inside them run once or only on growth, not per call.
func guardedRanges(body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifst, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		guard := false
		ast.Inspect(ifst.Cond, func(c ast.Node) bool {
			if id, ok := c.(*ast.Ident); ok {
				switch id.Name {
				case "nil", "cap", "len":
					guard = true
				}
			}
			return !guard
		})
		if guard {
			out = append(out, [2]token.Pos{ifst.Body.Pos(), ifst.Body.End()})
		}
		return true
	})
	return out
}

// capacityProvenanced collects expressions (rendered as source strings)
// that are re-sliced or sized with make anywhere in the function, granting
// capacity provenance to appends targeting them.
func capacityProvenanced(pass *Pass, body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, rhs := range st.Rhs {
			switch r := ast.Unparen(rhs).(type) {
			case *ast.SliceExpr:
				out[types.ExprString(ast.Unparen(st.Lhs[i]))] = true
			case *ast.CallExpr:
				if id, ok := ast.Unparen(r.Fun).(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
						out[types.ExprString(ast.Unparen(st.Lhs[i]))] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// localClosures finds `name := func(...) {...}` closures assigned to plain
// local variables; calling such a closure is allocation-free as long as it
// never escapes.
func localClosures(pass *Pass, body *ast.BlockStmt) map[types.Object]*ast.FuncLit {
	out := map[types.Object]*ast.FuncLit{}
	ast.Inspect(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, rhs := range st.Rhs {
			lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				out[obj] = lit
			}
		}
		return true
	})
	return out
}
