package lint

// The goroutinelifecycle check enforces shutdown hygiene in the packages
// that host long-lived processes: every `go` statement there must spawn
// work that is visibly tied to a shutdown mechanism -- a context, a done
// channel, or a WaitGroup. A goroutine with none of these outlives Close,
// keeps file descriptors and timers alive, and turns clean test shutdown
// into a flake generator.
//
// "Tied" is a syntactic-plus-types judgment over the spawned body (and,
// for a spawned static call, one level of its callee): the body performs a
// channel operation (send, receive, select, or range over a channel),
// references a context.Context-typed variable, or calls WaitGroup
// Done/Wait. Any one suffices: a channel op means the goroutine can be
// signalled or will be released when the channel closes; a context
// reference means cancellation is at least plumbed through; a WaitGroup
// tie means someone waits for it. The heuristic is deliberately shallow --
// it asks that the tie be visible near the spawn, where a reviewer looks
// for it, not buried N calls deep.

import (
	"go/ast"
	"go/types"
)

// longLivedPkgs are the packages whose goroutines survive past a request:
// the server, the client connection machinery, cluster membership, and the
// repair protocol. Short-lived tooling (cmd/*) and pure libraries are out
// of scope.
var longLivedPkgs = []string{
	"internal/server",
	"internal/client",
	"internal/member",
	"internal/repair",
}

// GoroutineLifecycleAnalyzer reports `go` statements in long-lived
// packages whose spawned work shows no shutdown tie.
var GoroutineLifecycleAnalyzer = &Analyzer{
	Name: "goroutinelifecycle",
	Doc:  "goroutines in long-lived packages must be tied to a shutdown mechanism",
	Run:  runGoroutineLifecycle,
}

func runGoroutineLifecycle(pass *Pass) {
	long := false
	for _, suffix := range longLivedPkgs {
		if pathMatches(pass.Pkg.Path, suffix) {
			long = true
			break
		}
	}
	if !long {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(x ast.Node) bool {
			gs, ok := x.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !goStmtTied(pass, gs) {
				pass.Reportf(gs.Pos(), "goroutine is not tied to a shutdown mechanism (context, done channel, or WaitGroup)")
			}
			return true
		})
	}
}

// goStmtTied resolves the spawned callee and judges its body. A spawn the
// analysis cannot see into (a method value, a stored function value) is
// reported: if the lifecycle is managed, the management should be visible.
func goStmtTied(pass *Pass, gs *ast.GoStmt) bool {
	// go func() { ... }()
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return bodyTied(pass.Pkg, lit.Body, 1)
	}
	// go m.run(ctx) -- a context handed to the spawned call is a tie at
	// the spawn site itself.
	for _, arg := range gs.Call.Args {
		if isContextExpr(pass.Pkg.Info, arg) {
			return true
		}
	}
	fn := funcFor(pass.Pkg.Info, gs.Call)
	if fn == nil {
		return false
	}
	if decl := declOf(pass, fn); decl != nil && decl.Body != nil {
		return bodyTied(pass.Pkg, decl.Body, 1)
	}
	return false
}

// declOf finds the syntax for a function declared in any loaded package
// (the spawned body is often in a sibling file or package).
func declOf(pass *Pass, fn *types.Func) *ast.FuncDecl {
	for _, pkg := range pass.AllPackages() {
		if pkg.Types != fn.Pkg() {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if pkg.Info.Defs[fd.Name] == fn {
					return fd
				}
			}
		}
	}
	return nil
}

// bodyTied reports whether the body shows a shutdown tie, descending depth
// more levels into statically-resolved callees (the run loop is often one
// helper away from the spawn).
func bodyTied(pkg *Package, body *ast.BlockStmt, depth int) bool {
	tied := false
	ast.Inspect(body, func(x ast.Node) bool {
		if tied {
			return false
		}
		switch v := x.(type) {
		case *ast.SelectStmt, *ast.SendStmt:
			tied = true
			return false
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				tied = true
				return false
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					tied = true
					return false
				}
			}
		case *ast.Ident:
			if isContextIdent(pkg.Info, v) {
				tied = true
				return false
			}
		case *ast.CallExpr:
			if fn := funcFor(pkg.Info, v); fn != nil {
				if fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
					(fn.Name() == "Done" || fn.Name() == "Wait") {
					tied = true
					return false
				}
				if depth > 0 && fn.Pkg() == pkg.Types {
					// One-level descent within the package: find the decl
					// directly to avoid threading the whole session here.
					for _, file := range pkg.Files {
						for _, d := range file.Decls {
							fd, ok := d.(*ast.FuncDecl)
							if ok && pkg.Info.Defs[fd.Name] == fn && fd.Body != nil {
								if bodyTied(pkg, fd.Body, depth-1) {
									tied = true
								}
								return !tied
							}
						}
					}
				}
			}
		}
		return true
	})
	return tied
}

// isContextExpr reports whether the expression has type context.Context.
func isContextExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return t != nil && isContextType(t)
}

// isContextIdent reports whether the identifier denotes a variable or
// parameter of type context.Context.
func isContextIdent(info *types.Info, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	return ok && isContextType(v.Type())
}

// isContextType reports context.Context (named match, not structural: any
// interface embedding it still names it in the type string only when it IS
// it, which is what the tie means).
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
