// Package lint implements boltlint, a suite of static analyzers that enforce
// the repository's determinism, concurrency, and hot-path contracts at build
// time.
//
// Every result in this reproduction rests on invariants the Go compiler
// cannot see: suite output at seed 42 must be byte-identical at every
// parallelism level, and the detection hot path must stay allocation-free.
// The analyzers here move those contracts from "caught by a flaky diff in
// CI" to "rejected at build time":
//
//   - detrand:   no ambient nondeterminism (math/rand, time.Now, os.Getenv,
//     ranging over a map) in deterministic packages; randomness flows
//     through stats.RNG and maps are visited through stats.SortedKeys
//   - hotalloc:  no allocation construct in a //bolt:hotpath function or in
//     anything it calls
//   - hotcopy:   no call, in a //bolt:hotpath function, to a method whose
//     value receiver is an array or struct over 64 bytes
//   - barriermerge: fan-out bodies write index-addressed slots, never
//     shared state in completion order
//
// DESIGN.md "Determinism contract" records, for each, the bug it encodes
// and why the golden outputs and -race do not catch that bug reliably.
//
// The simulator's observation plane needs no analyzer: it keys its
// snapshot on the retunable demanders' demand itself, so there is no
// invalidation step to forget, and sim's FuzzObservationMatchesReference
// holds it to a reference copy bit for bit.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf, analysistest-style golden tests) but is built on
// the standard library alone: packages are enumerated with `go list -export`
// and type-checked against the compiler's export data, so the module keeps
// its zero-dependency property.
//
// # Suppression
//
// A diagnostic is suppressed with
//
//	//bolt:nolint <analyzer>[,<analyzer>...] -- <reason>
//
// placed on the offending line, on its own line directly above, or in the
// doc comment of the enclosing function (suppressing for the whole body).
// The reason is mandatory: a //bolt:nolint without `-- <reason>` suppresses
// nothing and is itself reported, as is one naming an analyzer that does
// not exist. The analyzer list may be omitted to suppress every analyzer
// for that line.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a fully type-checked package via
// the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Summaries is the module-wide function-fact index built over every
	// package in the Run (summary.go). The interprocedural analyzers
	// (hotalloc, barriermerge) consult it; the intraprocedural ones ignore
	// it.
	Summaries *Summaries

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Position: p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// NolintAnalyzerName is the pseudo-analyzer under which malformed
// suppression comments are reported. It cannot itself be suppressed.
const NolintAnalyzerName = "nolint"

// nolintPrefix introduces a suppression comment.
const nolintPrefix = "//bolt:nolint"

// HotpathDirective marks a function whose body the hotalloc and hotcopy
// analyzers check.
const HotpathDirective = "//bolt:hotpath"

// suppression is one parsed //bolt:nolint comment.
type suppression struct {
	file      string
	line      int  // line the comment sits on
	ownLine   bool // comment is the first token on its line
	fnStart   int  // enclosing-function line range when in a doc comment
	fnEnd     int  // (0,0 when the suppression is line-scoped)
	analyzers []string
	hasReason bool
	pos       token.Pos
}

// covers reports whether the suppression applies to a diagnostic of the
// given analyzer at the given file line.
func (s *suppression) covers(analyzer, file string, line int) bool {
	if file != s.file {
		return false
	}
	if len(s.analyzers) > 0 {
		found := false
		for _, a := range s.analyzers {
			if a == analyzer {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if s.fnEnd > 0 {
		return line >= s.fnStart && line <= s.fnEnd
	}
	if line == s.line {
		return true
	}
	// A stand-alone comment line covers the line directly below it.
	return s.ownLine && line == s.line+1
}

// parseSuppressions extracts every //bolt:nolint comment from the package.
func parseSuppressions(pkg *Package) []suppression {
	fset := pkg.Fset
	var out []suppression

	// Doc-comment suppressions scope to the whole function body.
	fnRange := map[*ast.Comment][2]int{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			start := fset.Position(fn.Pos()).Line
			end := fset.Position(fn.End()).Line
			for _, c := range fn.Doc.List {
				fnRange[c] = [2]int{start, end}
			}
		}
	}

	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, nolintPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				s := suppression{
					file:    pos.Filename,
					line:    pos.Line,
					ownLine: startsLine(pkg.Sources[pos.Filename], pos.Offset),
					pos:     c.Pos(),
				}
				rest := strings.TrimPrefix(text, nolintPrefix)
				if reason, ok := splitReason(&rest); ok {
					s.hasReason = reason != ""
				}
				s.analyzers = strings.FieldsFunc(rest, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				})
				if r, ok := fnRange[c]; ok {
					s.fnStart, s.fnEnd = r[0], r[1]
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// startsLine reports whether only whitespace precedes offset on its source
// line — i.e. the comment starting there stands on its own line.
func startsLine(src []byte, offset int) bool {
	if offset > len(src) {
		return false
	}
	for i := offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t':
			continue
		default:
			return false
		}
	}
	return true
}

// splitReason splits "analyzers -- reason" in place, leaving the analyzer
// list in *rest and returning the trimmed reason. ok is false when no "--"
// separator is present at all.
func splitReason(rest *string) (reason string, ok bool) {
	i := strings.Index(*rest, "--")
	if i < 0 {
		return "", false
	}
	reason = strings.TrimSpace((*rest)[i+2:])
	*rest = (*rest)[:i]
	return reason, true
}

// Run executes the analyzers over the packages, applies //bolt:nolint
// suppressions, reports malformed, misnamed and unused suppressions, and
// returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	summaries := BuildSummaries(pkgs)

	var all []Diagnostic
	for _, pkg := range pkgs {
		sups := parseSuppressions(pkg)

		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Summaries: summaries,
				diags:     &raw,
			}
			a.Run(pass)
		}

		used := make([]bool, len(sups))
		for _, d := range raw {
			suppressed := false
			for i := range sups {
				if sups[i].hasReason && sups[i].covers(d.Analyzer, d.Position.Filename, d.Position.Line) {
					suppressed = true
					used[i] = true
					break
				}
			}
			if !suppressed {
				all = append(all, d)
			}
		}
		for i := range sups {
			nolintf := func(format string, args ...any) {
				all = append(all, Diagnostic{
					Position: pkg.Fset.Position(sups[i].pos),
					Analyzer: NolintAnalyzerName,
					Message:  fmt.Sprintf(format, args...),
				})
			}
			if !sups[i].hasReason {
				nolintf("//bolt:nolint requires a reason: //bolt:nolint <analyzer>[,<analyzer>] -- <reason>")
				continue
			}
			// A misspelt or retired analyzer name matches no diagnostic and
			// can never be judged unused, so it would sit inert forever.
			for _, name := range sups[i].analyzers {
				if ByName(name) == nil {
					nolintf("unknown analyzer %q in //bolt:nolint; it suppresses nothing", name)
				}
			}
			// A suppression that matched nothing is stale: the code it
			// excused has moved or been fixed, and a silent stale nolint
			// would hide the next real diagnostic on that line. One that
			// kept an allocation out of the summaries is in use. Only
			// judged when every analyzer it names actually ran.
			used[i] = used[i] || summaries.hidSite[pkg.Fset.Position(sups[i].pos)]
			if !used[i] && runSetCovers(analyzers, sups[i].analyzers) {
				nolintf("unused //bolt:nolint: no diagnostic here to suppress; remove the stale suppression")
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Position, all[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all
}

// runSetCovers reports whether the analyzers that ran include everything a
// suppression names (or, for a bare suppress-all comment, the full
// analyzer set) — the precondition for judging the suppression unused, so
// a test that runs one analyzer does not flag another's suppressions.
func runSetCovers(ran []*Analyzer, named []string) bool {
	inRun := func(name string) bool {
		for _, a := range ran {
			if a.Name == name {
				return true
			}
		}
		return false
	}
	if len(named) == 0 {
		for _, a := range All() {
			if !inRun(a.Name) {
				return false
			}
		}
		return true
	}
	for _, n := range named {
		if !inRun(n) {
			return false
		}
	}
	return true
}

// hotpathFuncs returns the functions in the pass marked //bolt:hotpath.
func hotpathFuncs(pass *Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				if strings.TrimSpace(c.Text) == HotpathDirective {
					out = append(out, fn)
					break
				}
			}
		}
	}
	return out
}

// funcObj resolves the *types.Func for a call expression, or nil for
// builtins, conversions, and function-typed variables.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
