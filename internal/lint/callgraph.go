package lint

// Interprocedural analysis layer: a type-checker-backed call graph over the
// loaded packages that records, per function, its outgoing calls and the
// mutexes it acquires. lockorder derives its lock-ordering graph from it.
//
// Resolution rules, in decreasing precision:
//
//   - Direct calls, concrete method calls, deferred calls and
//     immediately-invoked function literals become EdgeCall edges.
//   - A call through a project-declared interface becomes EdgeDispatch
//     edges to every concrete method in the analyzed packages whose
//     receiver implements that interface -- a conservative approximation
//     that over-counts callees but never misses one that is in the build.
//     Interfaces declared in the standard library (error, io.Reader,
//     net.Conn, ...) are NOT expanded: their implementation sets are
//     enormous and none of them takes a project lock.
//   - go statements become EdgeGo edges: reachable, but not on the
//     caller's synchronous path.
//   - Calls through plain function values cannot be resolved and
//     contribute nothing (lockorder.go says why that loses nothing here).
//
// Standard-library packages are type-checked for facts but carry no syntax
// (load.go), so calls into them end at the boundary.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
)

// EdgeKind classifies one call-graph edge.
type EdgeKind int

const (
	// EdgeCall is a statically resolved synchronous call.
	EdgeCall EdgeKind = iota
	// EdgeDispatch is one conservative interface-dispatch candidate.
	EdgeDispatch
	// EdgeGo is a go statement's spawned call.
	EdgeGo
)

// Edge is one call-graph edge, with the call site as witness.
type Edge struct {
	Kind   EdgeKind
	Callee *Node
	Pos    token.Pos
}

// LockSite is one mutex acquisition resolved to its lock class: the
// package plus either "Type.field" for a struct-owned mutex or the bare
// variable name for a package-level one. Function-local mutexes have no
// cross-function ordering and are not recorded.
type LockSite struct {
	Pos token.Pos
	// PkgPath is the import path of the package declaring the mutex's
	// owning type or variable.
	PkgPath string
	// Name is "Type.field" or the package-level variable name.
	Name string
}

// Class is the canonical identity used for ordering: read and write sides
// of one RWMutex are the same class.
func (l LockSite) Class() string { return l.PkgPath + "." + l.Name }

// Display is the short human form: package base name plus owner.
func (l LockSite) Display() string { return path.Base(l.PkgPath) + "." + l.Name }

// Node is one analyzable function: a declared function or method
// (Fn != nil) or a function literal (Lit != nil).
type Node struct {
	Fn    *types.Func
	Lit   *ast.FuncLit
	Pkg   *Package
	Decl  *ast.FuncDecl
	Edges []Edge
	// Acquires are the mutex acquisitions resolved in this body, excluding
	// anything inside nested function literals (those are separate nodes).
	Acquires []LockSite
}

// Body returns the node's statement body.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	if n.Lit != nil {
		return n.Lit.Body
	}
	return nil
}

// Name renders the node for call chains: "server.(*Server).admitPutGroup",
// "wire.Encode", or "client.func@mux.go:203" for a literal.
func (n *Node) Name() string {
	if n.Fn != nil {
		name := n.Fn.Name()
		if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil {
			name = "(" + types.TypeString(recv.Type(), func(*types.Package) string { return "" }) + ")." + name
		}
		if n.Fn.Pkg() != nil {
			name = n.Fn.Pkg().Name() + "." + name
		}
		return name
	}
	pos := n.Pkg.Fset.Position(n.Lit.Pos())
	return fmt.Sprintf("%s.func@%s:%d", n.Pkg.Name, filepath.Base(pos.Filename), pos.Line)
}

// Graph is the interprocedural call graph over one Load's packages.
type Graph struct {
	fset  *token.FileSet
	nodes map[*types.Func]*Node
	lits  map[*ast.FuncLit]*Node
	// order lists every node in deterministic construction order
	// (package, file, declaration, then literals as encountered), so
	// checks never iterate the maps directly.
	order []*Node
	// concrete holds every non-interface named type in the analyzed
	// packages, the dispatch approximation's candidate set.
	concrete []*types.Named
	dispatch map[*types.Func][]*Node
	// project marks the type-checker packages loaded WITH syntax: only an
	// interface declared in one of these is expanded by the dispatch
	// approximation.
	project map[*types.Package]bool
}

// BuildGraph constructs the call graph and lock acquisitions for every
// function declared in the non-standard packages.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		nodes:    make(map[*types.Func]*Node),
		lits:     make(map[*ast.FuncLit]*Node),
		dispatch: make(map[*types.Func][]*Node),
		project:  make(map[*types.Package]bool),
	}
	for _, pkg := range pkgs {
		if pkg.Standard {
			continue
		}
		g.project[pkg.Types] = true
		if g.fset == nil {
			g.fset = pkg.Fset
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				g.concrete = append(g.concrete, named)
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &Node{Fn: fn, Pkg: pkg, Decl: fd}
				g.nodes[fn] = node
				g.order = append(g.order, node)
			}
		}
	}
	// Bodies second, so every static callee already has its node. The walk
	// creates literal nodes as it encounters them.
	for _, n := range g.order {
		if n.Lit == nil {
			g.walkBody(n)
		}
	}
	return g
}

// Nodes returns every node in deterministic order.
func (g *Graph) Nodes() []*Node { return g.order }

// AcquiredClasses returns every lock class acquired anywhere in n's
// synchronous reachable subgraph (including n itself), with the earliest
// witness site per class.
func (g *Graph) AcquiredClasses(n *Node) map[string]LockSite {
	out := make(map[string]LockSite)
	visited := make(map[*Node]bool)
	var dfs func(m *Node)
	dfs = func(m *Node) {
		if visited[m] {
			return
		}
		visited[m] = true
		for _, a := range m.Acquires {
			if prev, ok := out[a.Class()]; !ok || g.before(a.Pos, prev.Pos) {
				out[a.Class()] = a
			}
		}
		for _, e := range m.Edges {
			if e.Kind != EdgeGo {
				dfs(e.Callee)
			}
		}
	}
	dfs(n)
	return out
}

// before orders two positions by file name then offset, for deterministic
// witness selection.
func (g *Graph) before(a, b token.Pos) bool {
	pa, pb := g.fset.Position(a), g.fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// litNode returns (creating and walking on first sight) the node for a
// function literal.
func (g *Graph) litNode(pkg *Package, lit *ast.FuncLit) *Node {
	if n, ok := g.lits[lit]; ok {
		return n
	}
	n := &Node{Lit: lit, Pkg: pkg}
	g.lits[lit] = n
	g.order = append(g.order, n)
	g.walkBody(n)
	return n
}

// walkBody computes n's outgoing edges and lock acquisitions. Nested
// function literals become their own nodes: one that is immediately invoked,
// deferred or spawned gets an edge; one that is merely stored gets none.
func (g *Graph) walkBody(n *Node) {
	body := n.Body()
	if body == nil {
		return
	}
	var visit func(x ast.Node) bool
	visit = func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			g.litNode(n.Pkg, v)
			return false
		case *ast.GoStmt:
			// The callee runs elsewhere; its operands are evaluated here.
			g.resolve(n, v.Call, EdgeGo)
			ast.Inspect(v.Call.Fun, visit)
			for _, a := range v.Call.Args {
				ast.Inspect(a, visit)
			}
			return false
		case *ast.CallExpr:
			g.resolve(n, v, EdgeCall)
		}
		return true
	}
	ast.Inspect(body, visit)
}

// resolve records what one call expression contributes to n: an edge of the
// given kind to a literal or a declared function, a lock acquisition, or the
// dispatch candidates of a project-interface method. A go statement spawns
// only a callee the graph can name.
func (g *Graph) resolve(n *Node, call *ast.CallExpr, kind EdgeKind) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		n.Edges = append(n.Edges, Edge{Kind: kind, Callee: g.litNode(n.Pkg, lit), Pos: call.Pos()})
		return
	}
	fn := funcFor(n.Pkg.Info, call)
	if fn == nil {
		return // builtin, conversion, or a function value
	}
	if callee := g.nodes[fn]; callee != nil {
		n.Edges = append(n.Edges, Edge{Kind: kind, Callee: callee, Pos: call.Pos()})
		return
	}
	if kind == EdgeGo || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == "sync" && (fn.Name() == "Lock" || fn.Name() == "RLock") {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if ls, ok := lockClassOf(n.Pkg, sel.X, call.Pos()); ok {
				n.Acquires = append(n.Acquires, ls)
			}
		}
		return
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv != nil && types.IsInterface(recv.Type()) && g.project[fn.Pkg()] {
		for _, callee := range g.implementations(fn) {
			n.Edges = append(n.Edges, Edge{Kind: EdgeDispatch, Callee: callee, Pos: call.Pos()})
		}
	}
}

// lockClassOf resolves the expression denoting a mutex ("u.mu", "registry",
// "s.sh.mu") to a lock class. Function-local mutexes return ok=false.
func lockClassOf(pkg *Package, muExpr ast.Expr, pos token.Pos) (LockSite, bool) {
	switch e := ast.Unparen(muExpr).(type) {
	case *ast.SelectorExpr:
		// owner.field: the class is the owner's named type plus the field.
		tv, ok := pkg.Info.Types[e.X]
		if !ok {
			return LockSite{}, false
		}
		t := tv.Type
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return LockSite{}, false
		}
		return LockSite{
			Pos:     pos,
			PkgPath: named.Obj().Pkg().Path(),
			Name:    named.Obj().Name() + "." + e.Sel.Name,
		}, true
	case *ast.Ident:
		v, ok := pkg.Info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil {
			return LockSite{}, false
		}
		if v.Parent() != v.Pkg().Scope() {
			return LockSite{}, false // function-local mutex
		}
		return LockSite{Pos: pos, PkgPath: v.Pkg().Path(), Name: v.Name()}, true
	}
	return LockSite{}, false
}

// implementations returns (cached) the analyzed concrete methods that a
// project-interface method call may dispatch to.
func (g *Graph) implementations(ifaceMethod *types.Func) []*Node {
	if cached, ok := g.dispatch[ifaceMethod]; ok {
		return cached
	}
	var out []*Node
	recv := ifaceMethod.Type().(*types.Signature).Recv()
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		g.dispatch[ifaceMethod] = nil
		return nil
	}
	for _, named := range g.concrete {
		// Check the pointer type: its method set includes both value and
		// pointer receivers.
		ptr := types.NewPointer(named)
		if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, ifaceMethod.Pkg(), ifaceMethod.Name())
		concrete, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if node := g.nodes[concrete]; node != nil {
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return g.before(out[i].Fn.Pos(), out[j].Fn.Pos())
	})
	g.dispatch[ifaceMethod] = out
	return out
}
