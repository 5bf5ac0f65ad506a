// Package lint is a from-scratch, stdlib-only static-analysis framework
// for the Besteffs repository, plus the four project-aware analyzers that
// see what no test in the tree can: a wall clock or global rand in the
// digest-pinned simulation stack, a dropped error on the journalled write
// path, a lock-order cycle across packages, and a goroutine with no shutdown
// tie. Everything a test or the race detector can check is left to them.
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
// TestModuleLintClean (module_test.go) runs the analyzers over the module
// under `go test ./...`; the cmd/besteffslint driver runs them on demand.
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
	// Name is the check's identifier, used by lint:ignore.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// session is the state one Run shares across analyzers and packages: the
// loaded package set, and the guard that lets lockorder's global analysis
// run exactly once per Run no matter how many packages trigger it.
type session struct {
	pkgs      []*Package
	lockorder bool // global lockorder pass already ran
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
		LockOrderAnalyzer,
		GoroutineLifecycleAnalyzer,
	}
}

// Run applies every analyzer to each non-standard package, filters
// suppressed findings through the lint:ignore directives, reports stale
// directives that suppressed nothing, and returns the surviving
// diagnostics sorted by position.
func Run(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	sess := &session{pkgs: pkgs}
	analyzers := Analyzers()
	for _, pkg := range pkgs {
		if pkg.Standard {
			continue
		}
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, session: sess, diags: &diags})
		}
		diags = append(diags, ignoreErrors(pkg)...)
	}
	diags = filterIgnored(pkgs, diags)
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
