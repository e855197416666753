package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SnapshotAnalyzer enforces the simulator's observation-plane contract
// (internal/sim/observation.go) on both sides of the API:
//
//  1. Version discipline — a type implementing sim.DemandVersioner promises
//     that DemandVersion() changes whenever Demand(t) or DemandInto might.
//     So any method of such a type that writes a field Demand or
//     DemandInto reads must also write the field(s) DemandVersion reads.
//     Forgetting the bump leaves a stale demand snapshot serving same-tick
//     observations — exactly the silent staleness bug the epoch/version
//     key exists to prevent.
//
//  2. Snapshot retention — outside internal/sim, a value observed from a
//     server (ObservedVector, Slowdown, HostDemand, Observation, ...)
//     describes the placement at the moment of the call. Using such a value
//     after a Place/Remove on any server in the same function treats a
//     stale observation as current; re-observe after mutating placement
//     (or suppress with a reason when the before/after comparison is the
//     point).
var SnapshotAnalyzer = &Analyzer{
	Name: "snapshotdiscipline",
	Doc:  "enforce the observation plane's version-bump and no-stale-snapshot contracts",
	Run:  runSnapshot,
}

const simPkgPath = "bolt/internal/sim"

// observationMethods are the (*sim.Server) methods whose result is a
// placement-dependent observation.
var observationMethods = map[string]bool{
	"InterferenceLive": true, "ObservedVector": true,
	"ObservedPressure": true, "ObservedCorePressure": true, "Slowdown": true,
	"CPUUtilization": true, "HostDemand": true,
}

// placementMutators invalidate every previously taken observation.
var placementMutators = map[string]bool{"Place": true, "Remove": true}

func runSnapshot(pass *Pass) {
	checkVersionDiscipline(pass)
	if pass.Pkg.Path() != simPkgPath && !strings.HasPrefix(pass.Pkg.Path(), simPkgPath+"/") {
		checkSnapshotRetention(pass)
	}
}

// demandVersionerIface resolves sim.DemandVersioner from the package under
// analysis or its imports; nil when sim is not in scope.
func demandVersionerIface(pass *Pass) *types.Interface {
	var simPkg *types.Package
	if pass.Pkg.Path() == simPkgPath {
		simPkg = pass.Pkg
	} else {
		for _, imp := range pass.Pkg.Imports() {
			if imp.Path() == simPkgPath {
				simPkg = imp
				break
			}
		}
	}
	if simPkg == nil {
		return nil
	}
	obj := simPkg.Scope().Lookup("DemandVersioner")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}

// checkVersionDiscipline applies rule 1 to every DemandVersioner
// implementation declared in this package.
func checkVersionDiscipline(pass *Pass) {
	iface := demandVersionerIface(pass)
	if iface == nil {
		return
	}

	// Group methods by receiver base type.
	methodsByType := map[types.Object][]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) == 0 {
				continue
			}
			base := receiverBaseObj(pass, fn)
			if base != nil {
				methodsByType[base] = append(methodsByType[base], fn)
			}
		}
	}

	for base, methods := range methodsByType {
		named, ok := base.Type().(*types.Named)
		if !ok || !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		// The plane fills its snapshot through DemandInto, so the fields it
		// reads are demand state just as Demand's are.
		var demandFns []*ast.FuncDecl
		var versionFn *ast.FuncDecl
		for _, m := range methods {
			switch m.Name.Name {
			case "Demand", "DemandInto":
				demandFns = append(demandFns, m)
			case "DemandVersion":
				versionFn = m
			}
		}
		if len(demandFns) == 0 || versionFn == nil {
			continue // methods promoted from an embedded type; out of scope
		}
		demandFields := map[string]bool{}
		for _, fn := range demandFns {
			for f := range receiverFieldsRead(pass, fn) {
				demandFields[f] = true
			}
		}
		versionFields := receiverFieldsRead(pass, versionFn)
		if len(demandFields) == 0 || len(versionFields) == 0 {
			continue
		}
		for _, m := range methods {
			if m == versionFn || m.Body == nil || m.Name.Name == "Demand" || m.Name.Name == "DemandInto" {
				continue
			}
			writes := receiverFieldsWritten(pass, m)
			touchesDemand := false
			for f := range writes {
				if demandFields[f] {
					touchesDemand = true
					break
				}
			}
			if !touchesDemand {
				continue
			}
			bumps := false
			for f := range receiverFieldsAssigned(pass, m) {
				if versionFields[f] {
					bumps = true
					break
				}
			}
			if !bumps {
				pass.Reportf(m.Pos(),
					"method %s.%s writes state read by Demand or DemandInto but never bumps the demand version; the observation snapshot will serve stale demand", named.Obj().Name(), m.Name.Name)
			}
		}
	}
}

// receiverBaseObj returns the type object of a method's receiver base type.
func receiverBaseObj(pass *Pass, fn *ast.FuncDecl) types.Object {
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip generic instantiation if present.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

// receiverObj returns the receiver variable's object, or nil for anonymous
// receivers.
func receiverObj(pass *Pass, fn *ast.FuncDecl) types.Object {
	if fn.Recv == nil || len(fn.Recv.List) == 0 || len(fn.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fn.Recv.List[0].Names[0]]
}

// isSyncField reports whether a field's type lives in package sync
// (mutexes are infrastructural, not demand state).
func isSyncField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	named, ok := v.Type().(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}

// receiverFieldsRead collects the names of receiver fields a method reads.
func receiverFieldsRead(pass *Pass, fn *ast.FuncDecl) map[string]bool {
	recv := receiverObj(pass, fn)
	out := map[string]bool{}
	if recv == nil || fn.Body == nil {
		return out
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
			if fieldObj := pass.TypesInfo.Uses[sel.Sel]; fieldObj != nil && !isSyncField(fieldObj) {
				if _, isVar := fieldObj.(*types.Var); isVar {
					out[sel.Sel.Name] = true
				}
			}
		}
		return true
	})
	return out
}

// receiverFieldsAssigned collects receiver fields written by plain
// assignment or ++/--, the forms a version bump takes.
func receiverFieldsAssigned(pass *Pass, fn *ast.FuncDecl) map[string]bool {
	recv := receiverObj(pass, fn)
	out := map[string]bool{}
	if recv == nil || fn.Body == nil {
		return out
	}
	record := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
				out[sel.Sel.Name] = true
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(st.X)
		}
		return true
	})
	return out
}

// receiverFieldsWritten is receiverFieldsAssigned plus mutations through a
// pointer-receiver method called on a field (k.intensity.Set(...)).
func receiverFieldsWritten(pass *Pass, fn *ast.FuncDecl) map[string]bool {
	out := receiverFieldsAssigned(pass, fn)
	recv := receiverObj(pass, fn)
	if recv == nil || fn.Body == nil {
		return out
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(inner.X).(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != recv {
			return true
		}
		if fieldObj := pass.TypesInfo.Uses[inner.Sel]; fieldObj == nil || isSyncField(fieldObj) {
			return true
		}
		if m, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
			if sig, ok := m.Type().(*types.Signature); ok && sig.Recv() != nil {
				if _, isPtr := sig.Recv().Type().(*types.Pointer); isPtr {
					out[inner.Sel.Name] = true
				}
			}
		}
		return true
	})
	return out
}

// checkSnapshotRetention applies rule 2: within one function outside
// internal/sim, an observation-derived variable must not be used after a
// Place/Remove call.
func checkSnapshotRetention(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkRetentionInFunc(pass, fn)
		}
	}
}

// serverMethodCall returns the method name when call is a method on
// *sim.Server (or sim.Server).
func serverMethodCall(pass *Pass, call *ast.CallExpr) string {
	fn := funcObj(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != simPkgPath {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "Server" {
		return ""
	}
	return fn.Name()
}

func checkRetentionInFunc(pass *Pass, fn *ast.FuncDecl) {
	type obsVar struct {
		obj      types.Object
		name     string
		takenPos int // token.Pos as int for comparisons
	}
	var observations []obsVar
	var mutations []int

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			if len(node.Lhs) == 0 || len(node.Rhs) == 0 {
				return true
			}
			if call, ok := ast.Unparen(node.Rhs[0]).(*ast.CallExpr); ok {
				if m := serverMethodCall(pass, call); observationMethods[m] {
					for _, lhs := range node.Lhs {
						if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
							obj := pass.TypesInfo.Defs[id]
							if obj == nil {
								obj = pass.TypesInfo.Uses[id]
							}
							if obj != nil {
								observations = append(observations, obsVar{obj, id.Name, int(node.Pos())})
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			if m := serverMethodCall(pass, node); placementMutators[m] {
				mutations = append(mutations, int(node.Pos()))
			}
		}
		return true
	})

	if len(observations) == 0 || len(mutations) == 0 {
		return
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		use := pass.TypesInfo.Uses[id]
		if use == nil {
			return true
		}
		for _, o := range observations {
			if o.obj != use || int(id.Pos()) <= o.takenPos {
				continue
			}
			for _, m := range mutations {
				if o.takenPos < m && m < int(id.Pos()) {
					pass.Reportf(id.Pos(),
						"observation %q was taken before a Place/Remove and used after it; the placement changed, so the observation is stale — re-observe after mutating placement", o.name)
					return true
				}
			}
		}
		return true
	})
}
