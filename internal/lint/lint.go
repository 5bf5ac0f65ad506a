// Package lint is a from-scratch, stdlib-only static-analysis framework
// for the Besteffs repository, plus the project-aware analyzers that
// enforce the paper's invariants at build time: determinism of the
// simulation stack, durability of the journalled write path, lock
// discipline around shared state, codec registration for importance
// functions, and flight-recorder coverage of admission/eviction/repair
// decision paths.
//
// The framework is deliberately small: packages are enumerated with
// `go list -json -deps`, parsed with go/parser and type-checked with
// go/types (see load.go), and each analyzer is a function over one
// type-checked package. Diagnostics can be suppressed at the offending
// line with an annotated comment:
//
//	//lint:ignore <check> <reason>
//
// The reason is mandatory; an ignore without one is itself reported.
// The cmd/besteffslint driver runs the analyzers over the repository and
// is wired into CI as a required job next to build and test.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Name is the package name.
	Name string
	// Dir is the directory holding the package's sources.
	Dir string
	// Fset is the file set all Files positions resolve against.
	Fset *token.FileSet
	// Files are the parsed non-test Go files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type-checker's recorded facts for Files.
	Info *types.Info
	// Standard reports a Go standard-library package (dependencies are
	// type-checked for facts but never analyzed).
	Standard bool
}

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Check names the analyzer that produced the finding.
	Check string
	// Message describes the violated invariant.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named check.
type Analyzer struct {
	// Name is the check's identifier, used by -checks and lint:ignore.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// session is the state one Run shares across analyzers and packages: the
// loaded package set and the lazily-built interprocedural call graph. The
// once-guards let global analyses (lockorder's cycle detection, hotpath's
// cross-package annotation index) run exactly once per Run no matter how
// many packages trigger them.
type session struct {
	pkgs  []*Package
	graph *Graph

	hotpath   *hotpathIndex
	lockorder bool // global lockorder pass already ran
}

// Graph returns the session's call graph, building it on first use.
func (s *session) Graph() *Graph {
	if s.graph == nil {
		s.graph = BuildGraph(s.pkgs)
	}
	return s.graph
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Analyzer is the running check.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package

	session *session
	diags   *[]Diagnostic
}

// Graph returns the interprocedural call graph over every loaded package,
// shared by all analyzers in this Run.
func (p *Pass) Graph() *Graph { return p.session.Graph() }

// AllPackages returns every loaded package (standard ones included), for
// analyses whose scope is the whole build.
func (p *Pass) AllPackages() []*Package { return p.session.pkgs }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full project check suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondeterminismAnalyzer,
		UncheckedErrAnalyzer,
		LockDisciplineAnalyzer,
		CodecRegisteredAnalyzer,
		EventRecordedAnalyzer,
		HotPathAnalyzer,
		LockOrderAnalyzer,
		GoroutineLifecycleAnalyzer,
	}
}

// Select resolves a comma-separated list of check names ("" means all).
func Select(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if strings.TrimSpace(names) == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown check %q (have %s)", name, strings.Join(checkNames(all), ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: no checks selected from %q", names)
	}
	return out, nil
}

func checkNames(as []*Analyzer) []string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return names
}

// Run applies the analyzers to each non-standard package, filters
// suppressed findings through the lint:ignore directives, reports stale
// directives that suppressed nothing, and returns the surviving
// diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	sess := &session{pkgs: pkgs}
	for _, pkg := range pkgs {
		if pkg.Standard {
			continue
		}
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, session: sess, diags: &diags})
		}
		diags = append(diags, ignoreErrors(pkg)...)
	}
	diags = filterIgnored(pkgs, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// pathMatches reports whether an import path is the named project package:
// either exactly suffix (fixture modules) or ending in "/"+suffix, so
// "besteffs/internal/store" and "fixture/internal/store" both match
// "internal/store".
func pathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// funcFor resolves a call expression to the called *types.Func, or nil for
// indirect calls, conversions and builtins.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified identifier (pkg.Func).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// declaredIn reports whether the function's defining package matches the
// project-package suffix. For interface methods this is the package
// declaring the interface; for concrete methods, the receiver's package.
func declaredIn(fn *types.Func, suffix string) bool {
	return fn.Pkg() != nil && pathMatches(fn.Pkg().Path(), suffix)
}
