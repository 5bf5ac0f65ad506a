package lint

import (
	"go/types"
	"strings"
	"testing"
)

// loadFixtureGraph type-checks the fixture module once and builds its call
// graph; the hot/hotdep/lockpair packages are the synthetic subject for the
// graph-level assertions below.
func loadFixtureGraph(t *testing.T) *Graph {
	t.Helper()
	pkgs, err := Load("testdata/src", "./...")
	if err != nil {
		t.Fatalf("Load(testdata/src): %v", err)
	}
	return BuildGraph(pkgs)
}

// lookup resolves a package suffix, a receiver type name (empty for
// package-level functions) and a function name to its node, or nil.
func lookup(g *Graph, pkgSuffix, typeName, name string) *Node {
	for _, n := range g.Nodes() {
		if n.Fn == nil || n.Fn.Name() != name || !declaredIn(n.Fn, pkgSuffix) {
			continue
		}
		recvName := ""
		if recv := n.Fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			recvName = t.(*types.Named).Obj().Name()
		}
		if recvName == typeName {
			return n
		}
	}
	return nil
}

// syncPath returns one call path from 'from' to 'to' over synchronous edges
// (EdgeCall and EdgeDispatch), or nil when 'to' is unreachable.
func syncPath(from, to *Node) []*Node {
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

// edgeTo reports whether n has an edge of the given kind to callee.
func edgeTo(n *Node, kind EdgeKind, callee *Node) bool {
	for _, e := range n.Edges {
		if e.Kind == kind && e.Callee == callee {
			return true
		}
	}
	return false
}

func TestGraphStaticEdges(t *testing.T) {
	g := loadFixtureGraph(t)
	entry := lookup(g, "internal/hot", "", "Entry")
	grow := lookup(g, "internal/hot", "", "grow")
	if entry == nil || grow == nil {
		t.Fatalf("lookup(hot.Entry)=%v, lookup(hot.grow)=%v; want both", entry, grow)
	}
	if !edgeTo(entry, EdgeCall, grow) {
		t.Errorf("no EdgeCall hot.Entry -> hot.grow; edges: %v", entry.Edges)
	}

	// Cross-package static call.
	entryAppend := lookup(g, "internal/hot", "", "EntryAppend")
	depGrow := lookup(g, "internal/hotdep", "", "Grow")
	if entryAppend == nil || depGrow == nil {
		t.Fatal("EntryAppend or hotdep.Grow missing from the graph")
	}
	if !edgeTo(entryAppend, EdgeCall, depGrow) {
		t.Errorf("no EdgeCall hot.EntryAppend -> hotdep.Grow")
	}
}

func TestGraphDispatchEdges(t *testing.T) {
	g := loadFixtureGraph(t)
	push := lookup(g, "internal/hot", "", "Push")
	write := lookup(g, "internal/hotdep", "BoxSink", "Write")
	if push == nil || write == nil {
		t.Fatalf("lookup(hot.Push)=%v, lookup(hotdep.BoxSink.Write)=%v; want both", push, write)
	}
	if !edgeTo(push, EdgeDispatch, write) {
		t.Errorf("interface call hot.Push -> Sink.Write did not expand to EdgeDispatch on hotdep.(*BoxSink).Write")
	}
}

func TestGraphGoEdgesAndSpawns(t *testing.T) {
	g := loadFixtureGraph(t)
	spawn := lookup(g, "internal/hot", "", "SpawnIt")
	noop := lookup(g, "internal/hot", "", "noop")
	if spawn == nil || noop == nil {
		t.Fatal("SpawnIt or noop missing from the graph")
	}
	if !edgeTo(spawn, EdgeGo, noop) {
		t.Errorf("no EdgeGo hot.SpawnIt -> hot.noop")
	}
	// syncPath walks synchronous edges only; the spawned callee is not on the
	// caller's path.
	if p := syncPath(spawn, noop); p != nil {
		t.Errorf("syncPath(SpawnIt, noop) = %v, want nil", p)
	}
}

func TestGraphReachability(t *testing.T) {
	g := loadFixtureGraph(t)
	push := lookup(g, "internal/hot", "", "Push")
	write := lookup(g, "internal/hotdep", "BoxSink", "Write")
	p := syncPath(push, write)
	if p == nil {
		t.Fatal("syncPath(hot.Push, hotdep.(*BoxSink).Write) = nil; want a dispatch path")
	}
	var names []string
	for _, n := range p {
		names = append(names, n.Name())
	}
	if got := strings.Join(names, " -> "); got != "hot.Push -> hotdep.(*BoxSink).Write" {
		t.Errorf("syncPath = %q", got)
	}
	grow := lookup(g, "internal/hot", "", "grow")
	if p := syncPath(grow, push); p != nil {
		t.Errorf("syncPath(grow, Push) = %v, want nil (unreachable)", p)
	}
}

func TestGraphEffectSummaries(t *testing.T) {
	g := loadFixtureGraph(t)

	bump := lookup(g, "internal/hot", "Gauge", "Bump")
	if len(bump.Acquires) != 1 {
		t.Fatalf("Bump.Acquires = %v, want one", bump.Acquires)
	}
	if got := bump.Acquires[0].Name; got != "Gauge.mu" {
		t.Errorf("Bump acquires %q, want Gauge.mu", got)
	}

	// Transitive acquisition: AcquireAB holds A.mu and takes B.mu.
	ab := lookup(g, "internal/lockpair", "", "AcquireAB")
	classes := g.AcquiredClasses(ab)
	var haveA, haveB bool
	for c := range classes {
		if strings.HasSuffix(c, "lockpair.A.mu") {
			haveA = true
		}
		if strings.HasSuffix(c, "lockpair.B.mu") {
			haveB = true
		}
	}
	if !haveA || !haveB {
		t.Errorf("AcquiredClasses(AcquireAB) = %v, want A.mu and B.mu", classes)
	}
}
