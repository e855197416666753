package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the interprocedural layer under boltlint: a module-wide
// function-summary index, so that a contract stated on one function
// (//bolt:hotpath, a fan-out body) holds for everything that function
// calls.
//
//  1. Per-function facts are extracted from each package's already
//     type-checked AST: its first allocation site (allocSites, hotalloc.go),
//     its static call edges, and which of its func-typed parameters it
//     forwards as fan-out bodies.
//  2. Facts propagate across the call graph with fixed-point iteration.
//     Interface method calls fan out to every implementation declared in
//     the analyzed packages, so a hot path calling through an interface is
//     still tracked. Cycles converge because the facts are monotone.
//
// hotalloc and barriermerge consume the index through Pass.Summaries. It
// is rebuilt from source on every Run: extraction costs ≈0.1 s on the
// whole tree, less than `go list -export`, and an on-disk cache of it let
// stale facts pass the golden inventory.

// ParamForward records one call argument that is a func-typed parameter of
// the enclosing function, e.g. exper.forEachEpisode passing its body through to
// par.FanOut. The fixed point uses these to learn which wrappers are
// fan-out entry points.
type ParamForward struct {
	Callee     string // summary key of the called function
	ArgIndex   int    // position in the call
	ParamIndex int    // position in the enclosing signature
}

// FuncFacts are the per-function facts the summary layer extracts and
// propagates. The exported fields are local (this body only); the
// unexported trans* fields are the transitive closure.
type FuncFacts struct {
	// Allocates reports an unsuppressed allocation site in the body, as
	// judged by allocSites. AllocDesc/AllocPos describe the first such site
	// for diagnostics.
	Allocates bool
	AllocDesc string
	AllocPos  string

	// Calls are the statically resolved callee keys, deduplicated, in
	// source order (the order matters: transitive-allocation chains pick
	// the first allocating callee deterministically).
	Calls []string

	// FanOutParams are indices of func-typed parameters this function runs
	// as fan-out bodies (seeded at par.FanOut/FanOutBlocks, learned for
	// wrappers through ParamForwards).
	FanOutParams []int
	// ParamForwards records func-typed parameters passed on to callees.
	ParamForwards []ParamForward

	transAlloc bool
	allocVia   string // first callee (source order) the allocation is reached through; "" = local
}

// fanOutSeeds are the ground-truth fan-out entry points: par.FanOut and
// par.FanOutBlocks run their 4th argument as the concurrent body. Wrappers
// (exper.forEachEpisode and whatever comes next) are learned
// from ParamForwards at fixed point, so the seed list never needs to grow.
var fanOutSeeds = map[string][]int{
	"bolt/internal/par.FanOut":       {3},
	"bolt/internal/par.FanOutBlocks": {3},
}

// Summaries is the module-wide function-fact index for one Run.
type Summaries struct {
	funcs map[string]*FuncFacts
	keys  []string // sorted keys of funcs, for deterministic iteration

	// hidSite holds the positions of the reasoned hotalloc suppressions
	// that kept an allocation site out of a function's facts. Run counts
	// them as used: deleting one makes the function allocate, and every
	// hot caller then reports it.
	hidSite map[token.Position]bool
}

// funcKey is the summary key of a *types.Func: the generic origin's
// FullName, e.g. "bolt/internal/mining.Dot",
// "(*bolt/internal/serve.Server).flush", or — for interface methods —
// "(bolt/internal/sim.Demander).Demand".
func funcKey(fn *types.Func) string {
	return fn.Origin().FullName()
}

// TransitivelyAllocates reports whether key (or anything it can reach)
// allocates.
func (s *Summaries) TransitivelyAllocates(key string) bool {
	f := s.funcs[key]
	return f != nil && f.transAlloc
}

// FanOutParams returns the fan-out body-parameter indices of key (seeded
// or learned); nil when key is not a fan-out entry point.
func (s *Summaries) FanOutParams(key string) []int {
	f := s.funcs[key]
	if f == nil {
		return nil
	}
	return f.FanOutParams
}

// AllocChain renders the call chain from key to the allocation that makes
// it transitively allocating, e.g.
//
//	flushGroup → scratchFor → make (serve.go:101)
//
// Short names keep the diagnostic readable; the terminal element names the
// allocating construct and its position.
func (s *Summaries) AllocChain(key string) string {
	var parts []string
	cur := key
	for range s.keys { // bounded: via links cannot be longer than the graph
		f := s.funcs[cur]
		if f == nil {
			return strings.Join(parts, " → ")
		}
		if f.allocVia == "" {
			site := f.AllocDesc
			if f.AllocPos != "" {
				site += " (" + f.AllocPos + ")"
			}
			parts = append(parts, site)
			return strings.Join(parts, " → ")
		}
		parts = append(parts, shortFuncName(f.allocVia))
		cur = f.allocVia
	}
	return strings.Join(parts, " → ")
}

// shortFuncName compresses a summary key for diagnostics:
// "(*bolt/internal/serve.Server).flush" → "(*serve.Server).flush".
func shortFuncName(key string) string {
	out := key
	for {
		i := strings.Index(out, "bolt/")
		if i < 0 {
			return out
		}
		j := strings.Index(out[i:], ".")
		if j < 0 {
			return out
		}
		path := out[i : i+j]
		out = out[:i] + path[strings.LastIndex(path, "/")+1:] + out[i+j:]
	}
}

// BuildSummaries extracts local facts for every function in pkgs, resolves
// interface-dispatch and fan-out edges, and runs the fixed point. It is
// deterministic: iteration orders are pinned by sorted keys and source
// order, never map order.
func BuildSummaries(pkgs []*Package) *Summaries {
	s := &Summaries{funcs: map[string]*FuncFacts{}, hidSite: map[token.Position]bool{}}

	// Phase 1: local facts per package.
	for _, pkg := range pkgs {
		extractPackageFacts(pkg, s)
	}

	// Phase 2: synthesize entries for callees that have no body here —
	// fan-out seeds and interface methods (which get one call edge per
	// implementation found in the analyzed packages). Other externals have
	// no facts: a call into knownAllocating is a site of the caller
	// (allocSites), and the rest default to silence at the module boundary,
	// left to the dynamic alloc-budget gates.
	s.rebuildKeys()
	for _, k := range s.keys {
		for _, callee := range s.funcs[k].Calls {
			s.ensureCallee(callee, pkgs)
		}
		for _, pf := range s.funcs[k].ParamForwards {
			s.ensureCallee(pf.Callee, pkgs)
		}
	}
	for seed, params := range fanOutSeeds {
		if f := s.funcs[seed]; f != nil {
			f.FanOutParams = mergeInts(f.FanOutParams, params)
		}
	}
	s.rebuildKeys()

	// Phase 3: fixed point. All facts are monotone (false→true, growing
	// sets), so iteration terminates; the via links are recomputed from
	// scratch each sweep and settle with the booleans.
	for changed := true; changed; {
		changed = false
		for _, k := range s.keys {
			f := s.funcs[k]
			ta, av := f.Allocates, ""
			for _, callee := range f.Calls {
				if cf := s.funcs[callee]; cf != nil && cf.transAlloc && !ta {
					ta, av = true, callee
				}
			}
			var fan []int
			fan = append(fan, f.FanOutParams...)
			for _, pf := range f.ParamForwards {
				cf := s.funcs[pf.Callee]
				if cf == nil {
					continue
				}
				for _, p := range cf.FanOutParams {
					if p == pf.ArgIndex {
						fan = mergeInts(fan, []int{pf.ParamIndex})
					}
				}
			}
			if ta != f.transAlloc || av != f.allocVia || len(fan) != len(f.FanOutParams) {
				changed = true
			}
			f.transAlloc, f.allocVia = ta, av
			f.FanOutParams = fan
		}
	}
	return s
}

func (s *Summaries) rebuildKeys() {
	s.keys = s.keys[:0]
	for k := range s.funcs {
		s.keys = append(s.keys, k)
	}
	sort.Strings(s.keys)
}

// ensureCallee gives a summary entry to a callee with no body in pkgs: a
// fan-out seed, or an interface method expanded to its implementations.
func (s *Summaries) ensureCallee(key string, pkgs []*Package) {
	if _, ok := s.funcs[key]; ok {
		return
	}
	if params, ok := fanOutSeeds[key]; ok {
		s.funcs[key] = &FuncFacts{FanOutParams: append([]int(nil), params...)}
		return
	}
	if impls := s.interfaceImpls(key, pkgs); impls != nil {
		s.funcs[key] = &FuncFacts{Calls: impls}
	}
}

// interfaceImpls resolves an interface-method key like
// "(bolt/internal/sim.Demander).Demand" to the matching methods of
// every named type in pkgs that implements the interface, in sorted order.
// Returns nil when key does not name a resolvable interface method.
func (s *Summaries) interfaceImpls(key string, pkgs []*Package) []string {
	if !strings.HasPrefix(key, "(") {
		return nil
	}
	end := strings.Index(key, ")")
	if end < 0 || end+2 > len(key) || key[end+1] != '.' {
		return nil
	}
	recv, method := key[1:end], key[end+2:]
	if strings.HasPrefix(recv, "*") {
		return nil // pointer receiver: a concrete method, not an interface
	}
	dot := strings.LastIndex(recv, ".")
	if dot < 0 {
		return nil
	}
	pkgPath, typeName := recv[:dot], recv[dot+1:]

	iface := lookupInterface(pkgs, pkgPath, typeName)
	if iface == nil {
		return nil
	}
	var out []string
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			sel := types.NewMethodSet(types.NewPointer(named)).Lookup(pkg.Types, method)
			if sel == nil {
				// Exported interface methods are looked up package-free.
				for i, ms := 0, types.NewMethodSet(types.NewPointer(named)); i < ms.Len(); i++ {
					if ms.At(i).Obj().Name() == method {
						sel = ms.At(i)
						break
					}
				}
			}
			if sel == nil {
				continue
			}
			if m, ok := sel.Obj().(*types.Func); ok {
				out = append(out, funcKey(m))
			}
		}
	}
	sort.Strings(out)
	return dedupSorted(out)
}

// lookupInterface finds the named interface type pkgPath.typeName among the
// analyzed packages and their imports.
func lookupInterface(pkgs []*Package, pkgPath, typeName string) *types.Interface {
	lookupIn := func(tp *types.Package) *types.Interface {
		obj := tp.Scope().Lookup(typeName)
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	for _, pkg := range pkgs {
		if pkg.Types.Path() == pkgPath {
			return lookupIn(pkg.Types)
		}
	}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == pkgPath {
				return lookupIn(imp)
			}
		}
	}
	return nil
}

// extractPackageFacts adds the local facts of every function declared in
// pkg to s. Suppressed allocation sites (//bolt:nolint hotalloc with a
// reason) do not contribute facts: a documented, budget-pinned allocation
// must not poison every transitive caller.
func extractPackageFacts(pkg *Package, s *Summaries) {
	pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.Info}
	sups := parseSuppressions(pkg)
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			s.funcs[funcKey(obj)] = extractFuncFacts(pass, fn, sups, s.hidSite)
		}
	}
}

// extractFuncFacts walks one function body (function literals included:
// their effects run under this function's dynamic extent, and a closure
// passed elsewhere is summarized at its capture site, which is as precise
// as a flow-insensitive summary gets).
func extractFuncFacts(pass *Pass, fn *ast.FuncDecl, sups []suppression, hidSite map[token.Position]bool) *FuncFacts {
	f := &FuncFacts{}
	allocSites(pass, fn, func(pos token.Pos, desc, _ string) {
		if f.Allocates {
			return
		}
		p := pass.Fset.Position(pos)
		for i := range sups {
			if sups[i].hasReason && sups[i].covers(HotallocAnalyzer.Name, p.Filename, p.Line) {
				hidSite[pass.Fset.Position(sups[i].pos)] = true
				return
			}
		}
		f.Allocates, f.AllocDesc = true, desc
		f.AllocPos = fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
	})

	params := paramObjects(pass, fn)
	seenCall := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			extractCallFacts(pass, f, call, params, seenCall)
		}
		return true
	})
	return f
}

// extractCallFacts records one call's structural facts: call edges and
// parameter forwarding.
func extractCallFacts(pass *Pass, f *FuncFacts, call *ast.CallExpr, params map[types.Object]int, seenCall map[string]bool) {
	callee := funcObj(pass.TypesInfo, call)
	if callee == nil {
		return
	}
	key := funcKey(callee)
	if !seenCall[key] {
		seenCall[key] = true
		f.Calls = append(f.Calls, key)
	}

	// Parameter forwarding: an argument that is a func-typed parameter of
	// the enclosing function.
	for ai, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			continue
		}
		pi, isParam := params[obj]
		if !isParam {
			continue
		}
		if _, isSig := obj.Type().Underlying().(*types.Signature); !isSig {
			continue
		}
		f.ParamForwards = append(f.ParamForwards, ParamForward{Callee: key, ArgIndex: ai, ParamIndex: pi})
	}
}

// paramObjects maps a function's parameter objects to their indices.
func paramObjects(pass *Pass, fn *ast.FuncDecl) map[types.Object]int {
	out := map[types.Object]int{}
	if fn.Type.Params == nil {
		return out
	}
	i := 0
	for _, field := range fn.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := pass.TypesInfo.Defs[name]; obj != nil {
				out[obj] = i
			}
			i++
		}
	}
	return out
}

func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// mergeInts unions b into a, sorted and deduplicated.
func mergeInts(a, b []int) []int {
	out := append(append([]int(nil), a...), b...)
	sort.Ints(out)
	dst := out[:0]
	for i, x := range out {
		if i == 0 || out[i-1] != x {
			dst = append(dst, x)
		}
	}
	return dst
}
