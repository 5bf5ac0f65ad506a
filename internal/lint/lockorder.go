package lint

// The lockorder check derives a lock-ordering graph from the call graph's
// lock acquisitions and flags every cycle as a potential deadlock. An edge
// A -> B means some function acquires lock class B -- directly, or
// transitively through a callee -- while holding A. Two goroutines walking
// a cycle from different entry points can each hold the lock the other
// wants, forever; an acyclic graph admits a canonical acquisition order
// (DESIGN.md documents the repository's) and makes that interleaving
// impossible.
//
// The held-set tracking is a linear source-order walk of each body:
// Lock/RLock pushes a class, Unlock/RUnlock pops it, a deferred unlock
// holds to the end of the body, and every call made while the set is
// non-empty contributes edges to every class the callee's reachable
// subgraph acquires. Branches are flattened (an unlock in one arm releases
// for the walk even if the other arm returns), which can under- or
// over-approximate in contorted bodies; in exchange the walk is simple,
// fast and deterministic. Calls through function values are invisible to
// the graph; the repository's one hook that runs under a lock (the store
// unit's eviction hook) takes no lock and does no I/O, so nothing is missed.
//
// The analysis is global: the graph spans every loaded package, and the
// cycle report names each cycle once, at its first witness site.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockOrderAnalyzer reports cycles in the lock-ordering graph.
var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "the lock-ordering graph across packages must be acyclic (deadlock freedom)",
	Run:  runLockOrder,
}

// lockEvent is one step of a body's linear walk.
type lockEvent struct {
	pos      token.Pos
	class    string // non-empty for acquire/release
	display  string
	acquire  bool
	release  bool
	deferred bool
	callee   *Node // non-nil for call events
}

// orderEdge is one lock-ordering edge with its earliest witness.
type orderEdge struct {
	from, to               string
	fromDisplay, toDisplay string
	pos                    token.Pos
	fn                     string
}

func runLockOrder(pass *Pass) {
	if pass.session.lockorder {
		return
	}
	pass.session.lockorder = true
	g := BuildGraph(pass.AllPackages())

	edges := make(map[[2]string]*orderEdge)
	for _, n := range g.Nodes() {
		collectOrderEdges(g, n, edges)
	}
	reportLockCycles(pass, g, edges)
}

// collectOrderEdges walks one body in source order and contributes its
// ordering edges.
func collectOrderEdges(g *Graph, n *Node, edges map[[2]string]*orderEdge) {
	body := n.Body()
	if body == nil {
		return
	}
	events := lockEvents(g, n)
	if len(events) == 0 {
		return
	}
	type held struct {
		class   string
		display string
	}
	var stack []held
	add := func(from held, to, toDisplay string, pos token.Pos) {
		if from.class == to {
			return // reacquisition aliasing; self-edges are not orderings
		}
		key := [2]string{from.class, to}
		if prev, ok := edges[key]; ok {
			if g.before(prev.pos, pos) || prev.pos == token.NoPos {
				if prev.pos != token.NoPos {
					return
				}
			}
		}
		edges[key] = &orderEdge{from: from.class, to: to,
			fromDisplay: from.display, toDisplay: toDisplay, pos: pos, fn: n.Name()}
	}
	for _, ev := range events {
		switch {
		case ev.acquire:
			for _, h := range stack {
				add(h, ev.class, ev.display, ev.pos)
			}
			stack = append(stack, held{ev.class, ev.display})
		case ev.release && !ev.deferred:
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i].class == ev.class {
					stack = append(stack[:i], stack[i+1:]...)
					break
				}
			}
		case ev.callee != nil && len(stack) > 0:
			acq := g.AcquiredClasses(ev.callee)
			classes := make([]string, 0, len(acq))
			for c := range acq {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				for _, h := range stack {
					add(h, c, acq[c].Display(), ev.pos)
				}
			}
		}
	}
}

// lockEvents extracts the body's lock operations and outgoing synchronous
// calls in source order. Nested function literals are separate nodes and
// excluded; their deferred-unlock idiom (defer func() { mu.Unlock() }())
// therefore holds to end-of-body here, exactly like a plain deferred
// unlock.
func lockEvents(g *Graph, n *Node) []lockEvent {
	var events []lockEvent
	inDefer := 0
	var visit func(x ast.Node) bool
	visit = func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			inDefer++
			ast.Inspect(v.Call, visit)
			inDefer--
			return false
		case *ast.CallExpr:
			if ev, ok := lockOpEvent(g, n, v); ok {
				ev.deferred = inDefer > 0
				events = append(events, ev)
			}
			return true
		}
		return true
	}
	ast.Inspect(n.Body(), visit)
	for _, e := range n.Edges {
		if e.Kind != EdgeGo {
			events = append(events, lockEvent{pos: e.Pos, callee: e.Callee})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	return events
}

// lockOpEvent classifies one call as a lock acquire/release on a resolved
// class.
func lockOpEvent(g *Graph, n *Node, call *ast.CallExpr) (lockEvent, bool) {
	fn := funcFor(n.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockEvent{}, false
	}
	var acquire, release bool
	switch fn.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		release = true
	default:
		return lockEvent{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	ls, ok := lockClassOf(n.Pkg, sel.X, call.Pos())
	if !ok {
		return lockEvent{}, false
	}
	return lockEvent{pos: call.Pos(), class: ls.Class(), display: ls.Display(),
		acquire: acquire, release: release}, true
}

// reportLockCycles finds strongly connected components in the ordering
// graph and reports each cycle once, rendered as a class walk with one
// witness site per edge.
func reportLockCycles(pass *Pass, g *Graph, edges map[[2]string]*orderEdge) {
	adj := make(map[string][]string)
	var classes []string
	seen := make(map[string]bool)
	keys := make([][2]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		adj[k[0]] = append(adj[k[0]], k[1])
		for _, c := range k[:] {
			if !seen[c] {
				seen[c] = true
				classes = append(classes, c)
			}
		}
	}
	sort.Strings(classes)

	comp := sccComponents(classes, adj)
	for _, scc := range comp {
		if len(scc) < 2 {
			continue
		}
		inSCC := make(map[string]bool, len(scc))
		for _, c := range scc {
			inSCC[c] = true
		}
		sort.Strings(scc)
		cycle := cycleThrough(scc[0], inSCC, adj)
		if cycle == nil {
			continue
		}
		var parts []string
		var firstPos token.Pos
		for i := 0; i+1 < len(cycle); i++ {
			e := edges[[2]string{cycle[i], cycle[i+1]}]
			where := "declared"
			if e.pos != token.NoPos {
				p := pass.Pkg.Fset.Position(e.pos)
				where = fmt.Sprintf("%s:%d in %s", shortFile(p.Filename), p.Line, e.fn)
				if firstPos == token.NoPos {
					firstPos = e.pos
				}
			} else {
				where = e.fn
			}
			if i == 0 {
				parts = append(parts, e.fromDisplay)
			}
			parts = append(parts, fmt.Sprintf("%s (%s)", e.toDisplay, where))
		}
		pos := firstPos
		if pos == token.NoPos {
			pos = filePos(pass.Pkg, 0)
		}
		pass.Reportf(pos, "lock-order cycle: %s; pick one acquisition order and document it (DESIGN.md, lock order)",
			strings.Join(parts, " -> "))
	}
}

// cycleThrough returns a class walk start -> ... -> start inside one SCC,
// choosing the smallest next class at each step for determinism.
func cycleThrough(start string, inSCC map[string]bool, adj map[string][]string) []string {
	path := []string{start}
	visited := map[string]bool{start: true}
	cur := start
	for {
		next := ""
		for _, c := range adj[cur] {
			if !inSCC[c] {
				continue
			}
			if c == start {
				return append(path, start)
			}
			if !visited[c] && (next == "" || c < next) {
				next = c
			}
		}
		if next == "" {
			return nil
		}
		visited[next] = true
		path = append(path, next)
		cur = next
	}
}

// sccComponents is Tarjan's algorithm over the class graph, iterative-free
// (the graphs are tiny) and deterministic given sorted inputs.
func sccComponents(classes []string, adj map[string][]string) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var comps [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, c := range classes {
		if _, ok := index[c]; !ok {
			strongconnect(c)
		}
	}
	return comps
}

// shortFile trims a file path to its last two elements for messages.
func shortFile(name string) string {
	parts := strings.Split(name, "/")
	if len(parts) <= 2 {
		return name
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
