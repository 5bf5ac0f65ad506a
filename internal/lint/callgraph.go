package lint

// Interprocedural analysis layer: a type-checker-backed call graph over the
// loaded packages, with per-function effect summaries. The graph is built
// once per Run (see Pass.Graph) and shared by the interprocedural checks --
// hotpath walks it for reachable effects, lockorder derives a lock-ordering
// graph from it, goroutinelifecycle resolves spawned functions through it.
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
//     enormous and mostly irrelevant, so such calls are classified by the
//     stdlib boundary tables below instead.
//   - go statements become EdgeGo edges: reachable, but not on the
//     caller's synchronous path.
//   - Calls through plain function values cannot be resolved; they are
//     recorded as Dynamic effect sites so checks can surface (or waive)
//     them instead of silently assuming they are effect-free.
//
// Standard-library packages are type-checked for facts but carry no syntax
// (load.go), so calls into them are classified at the boundary by name:
// fmt allocates, time.Sleep and friends block, everything else is assumed
// effect-free.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"sort"
	"strings"
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

// Site is one effect location inside a function body.
type Site struct {
	Pos  token.Pos
	Desc string
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
	// Read marks an RLock acquisition.
	Read bool
}

// Class is the canonical identity used for allowlists and ordering:
// read and write sides of one RWMutex are the same class.
func (l LockSite) Class() string { return l.PkgPath + "." + l.Name }

// Display is the short human form: package base name plus owner.
func (l LockSite) Display() string { return path.Base(l.PkgPath) + "." + l.Name }

// Effects summarizes what one function body does directly, excluding
// anything inside nested function literals (those are separate nodes).
type Effects struct {
	// Allocs are heap-allocation sites: make, new, append growth,
	// interface boxing, capturing function literals, and fmt calls.
	Allocs []Site
	// Blocks are potentially blocking sites: channel operations, selects
	// without a default case, and known blocking stdlib boundary calls.
	Blocks []Site
	// Acquires are resolved mutex acquisitions.
	Acquires []LockSite
	// Dynamic are calls through function values the graph cannot resolve.
	Dynamic []Site
	// Spawns are go statements.
	Spawns []Site
}

// Node is one analyzable function: a declared function or method
// (Fn != nil) or a function literal (Lit != nil).
type Node struct {
	Fn      *types.Func
	Lit     *ast.FuncLit
	Pkg     *Package
	Decl    *ast.FuncDecl
	Edges   []Edge
	Effects Effects
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
	// project marks the type-checker packages loaded WITH syntax: an
	// interface declared in one of these is expanded by the dispatch
	// approximation; everything else (the standard library) is classified
	// by the boundary tables alone.
	project map[*types.Package]bool
}

// BuildGraph constructs the call graph and effect summaries for every
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

// NodeFor returns the node for a declared function, or nil.
func (g *Graph) NodeFor(fn *types.Func) *Node { return g.nodes[fn] }

// Nodes returns every node in deterministic order.
func (g *Graph) Nodes() []*Node { return g.order }

// PackageNodes returns the nodes declared in pkg, in order.
func (g *Graph) PackageNodes(pkg *Package) []*Node {
	var out []*Node
	for _, n := range g.order {
		if n.Pkg == pkg {
			out = append(out, n)
		}
	}
	return out
}

// Lookup resolves "pkgSuffix", "TypeName" (empty for package-level
// functions) and a function name to its node, or nil.
func (g *Graph) Lookup(pkgSuffix, typeName, name string) *Node {
	for _, n := range g.order {
		if n.Fn == nil || n.Fn.Name() != name || !declaredIn(n.Fn, pkgSuffix) {
			continue
		}
		recv := n.Fn.Type().(*types.Signature).Recv()
		if typeName == "" {
			if recv == nil {
				return n
			}
			continue
		}
		if recv != nil && namedOf(recv.Type()) == typeName {
			return n
		}
	}
	return nil
}

// Path returns one call path from 'from' to 'to' over synchronous edges
// (EdgeCall and EdgeDispatch), or nil when 'to' is unreachable. Used by
// tests and diagnostics; the search is deterministic (edge order).
func (g *Graph) Path(from, to *Node) []*Node {
	visited := map[*Node]bool{from: true}
	var dfs func(n *Node, path []*Node) []*Node
	dfs = func(n *Node, path []*Node) []*Node {
		if n == to {
			return append(path, n)
		}
		for _, e := range n.Edges {
			if e.Kind == EdgeGo || visited[e.Callee] {
				continue
			}
			visited[e.Callee] = true
			if p := dfs(e.Callee, append(path, n)); p != nil {
				return p
			}
		}
		return nil
	}
	return dfs(from, nil)
}

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
		for _, a := range m.Effects.Acquires {
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

// walkBody computes n's direct effects and outgoing edges. Nested function
// literals become their own nodes: a literal that is immediately invoked,
// deferred or spawned gets an edge; one that is merely stored gets none
// (its later invocation surfaces as a Dynamic site at the call-through
// point), but a capturing literal is itself an allocation here.
func (g *Graph) walkBody(n *Node) {
	body := n.Body()
	if body == nil {
		return
	}
	// Channel operations that are a select's case headers are subsumed by
	// the select's own blocking classification.
	suppress := make(map[ast.Node]bool)
	var visit func(x ast.Node) bool
	visit = func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			g.storedLit(n, v)
			return false
		case *ast.GoStmt:
			n.Effects.Spawns = append(n.Effects.Spawns, Site{v.Pos(), "go statement"})
			g.spawnedCall(n, v.Call, visit)
			return false
		case *ast.DeferStmt:
			g.call(n, v.Call, visit)
			return false
		case *ast.CallExpr:
			g.call(n, v, visit)
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range v.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm == nil {
					hasDefault = true
					continue
				}
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					suppress[comm] = true
				case *ast.ExprStmt:
					suppress[ast.Unparen(comm.X)] = true
				case *ast.AssignStmt:
					if len(comm.Rhs) == 1 {
						suppress[ast.Unparen(comm.Rhs[0])] = true
					}
				}
			}
			if !hasDefault {
				n.Effects.Blocks = append(n.Effects.Blocks, Site{v.Pos(), "select with no default case"})
			}
			return true
		case *ast.SendStmt:
			if !suppress[v] {
				n.Effects.Blocks = append(n.Effects.Blocks, Site{v.Pos(), "channel send"})
			}
			return true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW && !suppress[v] {
				n.Effects.Blocks = append(n.Effects.Blocks, Site{v.Pos(), "channel receive"})
			}
			return true
		case *ast.RangeStmt:
			if tv, ok := n.Pkg.Info.Types[v.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					n.Effects.Blocks = append(n.Effects.Blocks, Site{v.Pos(), "range over a channel"})
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(body, visit)
}

// storedLit handles a function literal in value position: node it, and
// charge the enclosing function for the closure allocation if it captures.
func (g *Graph) storedLit(n *Node, lit *ast.FuncLit) *Node {
	ln := g.litNode(n.Pkg, lit)
	if capturesOuter(n.Pkg.Info, n.Pkg.Types, lit) {
		n.Effects.Allocs = append(n.Effects.Allocs, Site{lit.Pos(), "function literal captures variables"})
	}
	return ln
}

// spawnedCall classifies a go statement's call: an EdgeGo to the resolved
// callee, plus argument walking (arguments are evaluated on the caller's
// goroutine).
func (g *Graph) spawnedCall(n *Node, call *ast.CallExpr, visit func(ast.Node) bool) {
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		ln := g.storedLit(n, lit)
		n.Edges = append(n.Edges, Edge{Kind: EdgeGo, Callee: ln, Pos: call.Pos()})
	} else if fn := funcFor(n.Pkg.Info, call); fn != nil {
		if callee := g.nodes[fn]; callee != nil {
			n.Edges = append(n.Edges, Edge{Kind: EdgeGo, Callee: callee, Pos: call.Pos()})
		}
	} else {
		ast.Inspect(call.Fun, visit)
	}
	for _, a := range call.Args {
		ast.Inspect(a, visit)
	}
}

// call classifies one (possibly deferred) call expression and walks its
// sub-expressions.
func (g *Graph) call(n *Node, call *ast.CallExpr, visit func(ast.Node) bool) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)

	// Type conversion: only interface conversions matter (boxing).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) {
			n.Effects.Allocs = append(n.Effects.Allocs, Site{call.Pos(), "conversion boxes a value into an interface"})
		}
		for _, a := range call.Args {
			ast.Inspect(a, visit)
		}
		return
	}

	// Builtins: make, new and append are the allocating ones.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				n.Effects.Allocs = append(n.Effects.Allocs, Site{call.Pos(), "make"})
			case "new":
				n.Effects.Allocs = append(n.Effects.Allocs, Site{call.Pos(), "new"})
			case "append":
				n.Effects.Allocs = append(n.Effects.Allocs, Site{call.Pos(), "append may grow its backing array"})
			}
			for _, a := range call.Args {
				ast.Inspect(a, visit)
			}
			return
		}
	}

	// Immediately-invoked literal.
	if lit, ok := fun.(*ast.FuncLit); ok {
		ln := g.storedLit(n, lit)
		n.Edges = append(n.Edges, Edge{Kind: EdgeCall, Callee: ln, Pos: call.Pos()})
		for _, a := range call.Args {
			ast.Inspect(a, visit)
		}
		return
	}

	isFmt := false
	if fn := funcFor(info, call); fn != nil {
		isFmt = g.staticCall(n, call, fn)
	} else {
		n.Effects.Dynamic = append(n.Effects.Dynamic,
			Site{call.Pos(), fmt.Sprintf("call through function value %s", types.ExprString(call.Fun))})
	}
	if !isFmt {
		g.boxedArgs(n, call)
	}
	ast.Inspect(call.Fun, visit)
	for _, a := range call.Args {
		ast.Inspect(a, visit)
	}
}

// staticCall classifies a call resolved to fn: lock methods, stdlib
// boundaries, interface dispatch, or a plain edge. Reports whether the
// callee is package fmt (so the caller skips redundant boxing sites).
func (g *Graph) staticCall(n *Node, call *ast.CallExpr, fn *types.Func) (isFmt bool) {
	// sync primitives first: acquisitions get lock classes, Wait blocks.
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		switch fn.Name() {
		case "Lock", "RLock":
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if ls, ok := lockClassOf(n.Pkg, sel.X, call.Pos()); ok {
					ls.Read = fn.Name() == "RLock"
					n.Effects.Acquires = append(n.Effects.Acquires, ls)
				}
			}
			return false
		case "Wait":
			if recvNamed(fn) == "WaitGroup" || recvNamed(fn) == "Cond" {
				n.Effects.Blocks = append(n.Effects.Blocks, Site{call.Pos(), "sync." + recvNamed(fn) + ".Wait"})
			}
			return false
		case "Unlock", "RUnlock", "TryLock", "TryRLock":
			return false
		}
	}

	recv := fn.Type().(*types.Signature).Recv()
	if recv != nil && types.IsInterface(recv.Type()) {
		g.boundaryEffects(n, call, fn)
		// Only project-declared interfaces are expanded; stdlib ones
		// (error, io.Reader, net.Conn...) have unbounded implementation
		// sets and are classified by the boundary tables alone.
		if g.project[fn.Pkg()] {
			for _, callee := range g.implementations(fn) {
				n.Edges = append(n.Edges, Edge{Kind: EdgeDispatch, Callee: callee, Pos: call.Pos()})
			}
		}
		return fn.Pkg() != nil && fn.Pkg().Path() == "fmt"
	}

	if callee := g.nodes[fn]; callee != nil {
		n.Edges = append(n.Edges, Edge{Kind: EdgeCall, Callee: callee, Pos: call.Pos()})
		return false
	}
	g.boundaryEffects(n, call, fn)
	return fn.Pkg() != nil && fn.Pkg().Path() == "fmt"
}

// boundaryEffects classifies a call into a package whose bodies are not
// analyzed (standard library, or assembly-backed declarations).
func (g *Graph) boundaryEffects(n *Node, call *ast.CallExpr, fn *types.Func) {
	if fn.Pkg() == nil {
		return
	}
	pkgPath := fn.Pkg().Path()
	key := pkgPath + "." + fn.Name()
	if t := recvNamed(fn); t != "" {
		key = pkgPath + "." + t + "." + fn.Name()
	}
	switch {
	case pkgPath == "fmt":
		n.Effects.Allocs = append(n.Effects.Allocs, Site{call.Pos(), "fmt." + fn.Name() + " formats into fresh allocations"})
	case blockingBoundary[key] != "":
		n.Effects.Blocks = append(n.Effects.Blocks, Site{call.Pos(), blockingBoundary[key]})
	case pkgPath == "net" || strings.HasPrefix(pkgPath, "net/"):
		n.Effects.Blocks = append(n.Effects.Blocks, Site{call.Pos(), "network I/O (" + key + ")"})
	}
}

// blockingBoundary names the known blocking standard-library calls, keyed
// "pkg.Func" or "pkg.Type.Method".
var blockingBoundary = map[string]string{
	"time.Sleep":            "time.Sleep",
	"io.ReadFull":           "io.ReadFull",
	"io.ReadAll":            "io.ReadAll",
	"io.Copy":               "io.Copy",
	"io.CopyN":              "io.CopyN",
	"os.File.Read":          "os.File.Read",
	"os.File.Write":         "os.File.Write",
	"os.File.Sync":          "os.File.Sync",
	"os.File.ReadAt":        "os.File.ReadAt",
	"os.File.WriteAt":       "os.File.WriteAt",
	"os/exec.Cmd.Run":       "exec.Cmd.Run",
	"os/exec.Cmd.Wait":      "exec.Cmd.Wait",
	"os/exec.Cmd.Output":    "exec.Cmd.Output",
	"crypto/rand.Read":      "crypto/rand.Read",
	"crypto/tls.Conn.Read":  "tls.Conn.Read",
	"crypto/tls.Conn.Write": "tls.Conn.Write",
	"bufio.Reader.Read":     "bufio.Reader.Read",
}

// boxedArgs reports (at most once per call) concrete values passed to
// interface parameters -- the implicit boxing that allocates on every call.
func (g *Graph) boxedArgs(n *Node, call *ast.CallExpr) {
	tv, ok := n.Pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed whole; no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && boxes(n.Pkg.Info, arg) {
			n.Effects.Allocs = append(n.Effects.Allocs, Site{call.Pos(), "arguments boxed into interface parameters"})
			return
		}
	}
}

// boxes reports whether passing arg to an interface allocates: true for
// concrete non-pointer-shaped values (structs, strings, slices, numbers),
// false for nil, interfaces, and single-word types (pointers, channels,
// maps, funcs).
func boxes(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.IsNil() {
		return false
	}
	t := types.Default(tv.Type)
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() != types.UnsafePointer
	}
	return true
}

// capturesOuter reports whether the literal references any variable
// declared outside it but inside an enclosing function -- the free
// variables that force a closure allocation. Package-level variables and
// struct fields are not captures.
func capturesOuter(info *types.Info, pkg *types.Package, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() != pkg {
			return true
		}
		if v.Parent() == pkg.Scope() || v.Parent() == nil {
			return true // package-level, or a field-like object
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			captured = true
		}
		return !captured
	})
	return captured
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

// recvNamed returns the name of fn's receiver's named type ("" for
// receiver-less functions).
func recvNamed(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	return namedOf(recv.Type())
}
