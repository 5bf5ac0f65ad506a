package lint

// The hotpath check enforces ROADMAP item 4's invariant mechanically: a
// function annotated
//
//	//besteffs:hotpath
//
// in its doc comment is a hot-path root, and nothing transitively reachable
// from it (over static calls and the conservative interface-dispatch
// approximation) may allocate, block, spawn goroutines, acquire a mutex
// off the allowlist below, or call through a function value the graph
// cannot see into. Every finding names the full call chain from the root
// to the offending site, and is reported AT that site, so the ordinary
// line-level //lint:ignore machinery applies.
//
// Two escape hatches keep the check honest rather than aspirational:
//
//	//besteffs:hotpath-ok <reason>
//
// on a function's doc comment waives the function entirely -- traversal
// does not descend into it -- for the boundaries whose cost IS the
// contract (the frame reader/writer, the WAL barrier, the group admission
// under the store lock). The reason is mandatory. For a single site inside
// an otherwise-checked function, a line-level "//lint:ignore hotpath
// <reason>" documents the budgeted exception. Both are visible in review
// and in git blame; the CI allocs/op budget (bench-smoke) bounds what the
// waivers hide.

import (
	"go/ast"
	"go/types"
	"strings"
)

const (
	hotRootDirective  = "//besteffs:hotpath"
	hotWaiveDirective = "//besteffs:hotpath-ok"
)

// hotpathLockEntry allowlists one mutex for hot-path acquisition. Rows are
// validated like the lockdiscipline guard table: when a matching package is
// analyzed, the type and field must exist and be a sync lock, so renames
// cannot silently disarm the allowlist.
type hotpathLockEntry struct {
	PkgSuffix string
	TypeName  string
	Field     string
	// Why documents the acquisition's place in the hot path's contract.
	Why string
}

// hotpathAllowedLocks is the hot path's documented lock budget: the one
// store lock per admission group, the shard's write lock that serializes its
// mutations and makes checkpoints a clean cut, the WAL's internal
// serialization, the blob stores' locks (the in-memory map's; the payload
// log's appender lock, held across the group's one write and fsync, and its
// index lock, held across no syscall), and the client mux's registration lock.
var hotpathAllowedLocks = []hotpathLockEntry{
	{"internal/store", "Unit", "mu", "one acquisition per admission group"},
	{"internal/server", "shard", "mu", "the shard's write lock: one acquisition per shard group, held across its commit"},
	{"internal/journal", "WAL", "mu", "WAL segment serialization"},
	{"internal/blob", "MemStore", "mu", "payload map serialization"},
	{"internal/blob", "FileStore", "appendMu", "one acquisition per put group; serializes payload log appends"},
	{"internal/blob", "FileStore", "mu", "payload log index, O(group) critical section without a syscall"},
	{"internal/client", "mux", "mu", "in-flight registration, O(1) critical section"},
}

// HotPathAnalyzer walks the call graph from every //besteffs:hotpath root
// and reports reachable allocations, blocking calls, goroutine spawns,
// off-allowlist lock acquisitions and unanalyzable function-value calls,
// each with the full call chain from its root.
var HotPathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "//besteffs:hotpath functions must not transitively allocate, block, or take off-allowlist locks",
	Run:  runHotPath,
}

// hotpathIndex is the session-wide annotation index: roots and waivers are
// looked up across package boundaries during traversal, so they are
// collected once over every loaded package.
type hotpathIndex struct {
	roots  []*Node
	isRoot map[*Node]bool
	waived map[*Node]bool
	// problems collects malformed or misplaced directives, reported when
	// the owning package's pass runs.
	problems map[*Package][]Site
}

func runHotPath(pass *Pass) {
	idx := hotpathIndexFor(pass)
	for _, p := range idx.problems[pass.Pkg] {
		pass.Reportf(p.Pos, "%s", p.Desc)
	}
	validateHotpathLocks(pass)
	for _, root := range idx.roots {
		if root.Pkg == pass.Pkg {
			walkHotPath(pass, idx, root)
		}
	}
}

// hotpathIndexFor builds (once per Run) the annotation index.
func hotpathIndexFor(pass *Pass) *hotpathIndex {
	if pass.session.hotpath != nil {
		return pass.session.hotpath
	}
	g := pass.Graph()
	idx := &hotpathIndex{
		isRoot:   make(map[*Node]bool),
		waived:   make(map[*Node]bool),
		problems: make(map[*Package][]Site),
	}
	for _, pkg := range pass.session.pkgs {
		if pkg.Standard {
			continue
		}
		docOf := make(map[*ast.Comment]*ast.FuncDecl)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					docOf[c] = fd
				}
			}
		}
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimRight(c.Text, " \t")
					if !strings.HasPrefix(text, hotRootDirective) {
						continue
					}
					fd := docOf[c]
					if fd == nil {
						idx.problems[pkg] = append(idx.problems[pkg], Site{c.Pos(),
							"misplaced " + hotRootDirective + " directive: it must be part of a function declaration's doc comment"})
						continue
					}
					node := hotpathNodeFor(g, pkg, fd)
					switch {
					case text == hotRootDirective:
						if node == nil {
							idx.problems[pkg] = append(idx.problems[pkg], Site{c.Pos(),
								hotRootDirective + " annotates a function with no body"})
							continue
						}
						idx.roots = append(idx.roots, node)
						idx.isRoot[node] = true
					case strings.HasPrefix(text, hotWaiveDirective):
						reason := strings.TrimSpace(strings.TrimPrefix(text, hotWaiveDirective))
						if reason == "" || strings.HasPrefix(reason, "-") {
							idx.problems[pkg] = append(idx.problems[pkg], Site{c.Pos(),
								"malformed waiver: want \"" + hotWaiveDirective + " <reason>\""})
							continue
						}
						if node != nil {
							idx.waived[node] = true
						}
					default:
						idx.problems[pkg] = append(idx.problems[pkg], Site{c.Pos(),
							"malformed hot-path directive: want \"" + hotRootDirective + "\" or \"" + hotWaiveDirective + " <reason>\""})
					}
				}
			}
		}
	}
	for _, n := range idx.roots {
		if idx.waived[n] {
			idx.problems[n.Pkg] = append(idx.problems[n.Pkg], Site{n.Decl.Pos(),
				"function is annotated both " + hotRootDirective + " and " + hotWaiveDirective + "; pick one"})
		}
	}
	pass.session.hotpath = idx
	return idx
}

// hotpathNodeFor resolves a declaration to its graph node.
func hotpathNodeFor(g *Graph, pkg *Package, fd *ast.FuncDecl) *Node {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	return g.NodeFor(fn)
}

// walkHotPath reports every effect reachable from root over synchronous
// edges. Traversal stops at waived functions and at other roots (each root
// owns its own subgraph's findings, so shared helpers are not reported
// once per caller). go statements are reported as spawns but their callees
// are not descended: the spawned work is off the caller's path.
func walkHotPath(pass *Pass, idx *hotpathIndex, root *Node) {
	visited := make(map[*Node]bool)
	var dfs func(n *Node, chain []string)
	dfs = func(n *Node, chain []string) {
		if visited[n] {
			return
		}
		visited[n] = true
		chain = append(chain, n.Name())
		cs := strings.Join(chain, " -> ")
		for _, s := range n.Effects.Allocs {
			pass.Reportf(s.Pos, "allocation on the hot path: %s (chain: %s)", s.Desc, cs)
		}
		for _, s := range n.Effects.Blocks {
			pass.Reportf(s.Pos, "blocking call on the hot path: %s (chain: %s)", s.Desc, cs)
		}
		for _, a := range n.Effects.Acquires {
			if hotpathLockAllowed(a) {
				continue
			}
			pass.Reportf(a.Pos, "lock acquisition on the hot path: %s is not on the hot-path allowlist (chain: %s)", a.Display(), cs)
		}
		for _, s := range n.Effects.Dynamic {
			pass.Reportf(s.Pos, "unanalyzable %s on the hot path (chain: %s)", s.Desc, cs)
		}
		for _, s := range n.Effects.Spawns {
			pass.Reportf(s.Pos, "goroutine spawned on the hot path (chain: %s)", cs)
		}
		for _, e := range n.Edges {
			if e.Kind == EdgeGo {
				continue
			}
			c := e.Callee
			if idx.waived[c] || (idx.isRoot[c] && c != root) {
				continue
			}
			dfs(c, chain)
		}
	}
	dfs(root, nil)
}

// hotpathLockAllowed matches an acquisition against the allowlist.
func hotpathLockAllowed(ls LockSite) bool {
	for _, e := range hotpathAllowedLocks {
		if pathMatches(ls.PkgPath, e.PkgSuffix) && ls.Name == e.TypeName+"."+e.Field {
			return true
		}
	}
	return false
}

// validateHotpathLocks checks the allowlist rows owned by this package:
// the type and field must exist and be a sync.Mutex or sync.RWMutex.
func validateHotpathLocks(pass *Pass) {
	for _, e := range hotpathAllowedLocks {
		if !pathMatches(pass.Pkg.Path, e.PkgSuffix) {
			continue
		}
		obj := pass.Pkg.Types.Scope().Lookup(e.TypeName)
		if obj == nil {
			pass.Reportf(filePos(pass.Pkg, 0),
				"hot-path lock allowlist names type %s.%s which does not exist", e.PkgSuffix, e.TypeName)
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			pass.Reportf(obj.Pos(), "hot-path lock allowlist type %s is not a struct", e.TypeName)
			continue
		}
		var mu *types.Var
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == e.Field {
				mu = st.Field(i)
			}
		}
		if mu == nil {
			pass.Reportf(obj.Pos(), "hot-path lock allowlist field %s.%s does not exist", e.TypeName, e.Field)
			continue
		}
		if !isSyncLock(mu.Type()) {
			pass.Reportf(mu.Pos(), "hot-path lock allowlist field %s.%s is not a sync.Mutex or sync.RWMutex", e.TypeName, e.Field)
		}
	}
}
