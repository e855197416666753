package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// deterministicPkgs are the package paths (and their subpackages) whose
// output is pinned by the seed-42 golden suite: every bit of randomness in
// them must flow through stats.RNG, and no ambient process state (clock,
// environment) may influence results.
var deterministicPkgs = []string{
	"bolt/internal/sim",
	"bolt/internal/mining",
	"bolt/internal/core",
	"bolt/internal/exper",
	"bolt/internal/probe",
	"bolt/internal/stats",
	"bolt/internal/fault",
	"bolt/internal/fleet",
	"bolt/internal/par",
	"bolt/internal/cluster",
	"bolt/internal/defence",
	"bolt/internal/attack",
	"bolt/internal/serve",
	"bolt/internal/workload",
	"bolt/internal/trace",
	"bolt/internal/isolation",
	"bolt/internal/latency",
	"bolt/internal/study",
	// The serving-plane commands carry the same contract as the libraries
	// they drive: boltd answers must be bit-exact against the solo
	// detector, and boltload's shed/served counts are compared across
	// runs. Their few deliberate wall-clock reads (startup diagnostics,
	// latency measurement) carry //bolt:nolint reasons.
	"bolt/cmd/boltd",
	"bolt/cmd/boltload",
}

// isDeterministicPkg reports whether path is one of the deterministic
// packages or nested under one.
func isDeterministicPkg(path string) bool {
	for _, p := range deterministicPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// DetrandAnalyzer forbids ambient nondeterminism in deterministic packages:
// math/rand (global or otherwise — randomness must flow through stats.RNG,
// whose streams the golden tests pin), wall-clock reads (time.Now and
// friends), environment reads (os.Getenv — an env-dependent branch makes
// the suite's output depend on the machine it runs on), and visiting a map
// by range or by the maps package's iterators (Go randomises the iteration
// order per run; stats.SortedKeys is the one way these packages visit a
// map).
var DetrandAnalyzer = &Analyzer{
	Name: "detrand",
	Doc:  "forbid math/rand, wall-clock and environment reads, and map iteration in deterministic packages",
	Run:  runDetrand,
}

// detrandForbiddenCalls maps fully qualified functions to the reason they
// are forbidden in deterministic packages.
var detrandForbiddenCalls = map[string]string{
	"time.Now":       "wall-clock read",
	"time.Since":     "wall-clock read",
	"time.Until":     "wall-clock read",
	"os.Getenv":      "environment read",
	"os.LookupEnv":   "environment read",
	"os.Environ":     "environment read",
	"os.ExpandEnv":   "environment read",
	"os.Hostname":    "host-identity read",
	"os.Getpid":      "process-identity read",
	"runtime.NumCPU": "host-topology read",
	// Ranging over these needs go1.23, but calling them does not:
	// slices.Collect(maps.Keys(m)) visits m in its random order.
	"maps.Keys":   "map iteration order",
	"maps.Values": "map iteration order",
	"maps.All":    "map iteration order",
}

func runDetrand(pass *Pass) {
	if !isDeterministicPkg(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"deterministic package imports %s; all randomness must flow through stats.RNG so the seed-42 golden stream stays byte-identical", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if _, isMap := pass.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); isMap {
					pass.Reportf(rs.For,
						"range over a map in deterministic package %s; the iteration order changes run to run, so visit stats.SortedKeys instead", pass.Pkg.Path())
				}
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcObj(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			name := fn.Pkg().Path() + "." + fn.Name()
			if why, bad := detrandForbiddenCalls[name]; bad {
				pass.Reportf(call.Pos(),
					"%s (%s) in deterministic package %s; results must be a pure function of the seed", name, why, pass.Pkg.Path())
			}
			return true
		})
	}
}
