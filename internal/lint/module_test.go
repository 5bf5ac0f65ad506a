package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The repository root, seen from this package's directory.
const moduleRoot = "../.."

// module is the repository's module, loaded and type-checked once for every
// test in this file: one load takes seconds, several times that under -race.
var module struct {
	once  sync.Once
	pkgs  []*Package
	fset  *token.FileSet
	files []source // every .go file of the repository outside hidden directories
	err   error
}

// source is one .go file of the repository: its slash path from the root,
// its syntax, and its type facts when the load checked it. The load reads
// no _test.go file and nothing under bench/ or testdata/; those files are
// parsed only.
type source struct {
	rel  string
	file *ast.File
	info *types.Info // nil for a file the load did not read
}

// loadModule returns the module's packages (standard dependencies
// included, flagged Standard).
func loadModule(t *testing.T) []*Package {
	t.Helper()
	module.once.Do(func() {
		module.pkgs, module.err = Load(moduleRoot, "./...")
		if module.err == nil {
			module.files, module.err = sources(module.pkgs)
		}
	})
	if module.err != nil {
		t.Fatalf("load %s: %v", moduleRoot, module.err)
	}
	return module.pkgs
}

// TestModuleLintClean runs every analyzer over the module, as
// `go run ./cmd/besteffslint ./...` does, and fails on any finding.
func TestModuleLintClean(t *testing.T) {
	mustPackage(t, "internal/server")
	for _, d := range Run(loadModule(t)) {
		t.Error(d)
	}
}

// sources returns every .go file of the repository outside hidden
// directories: the loaded files with their packages' type facts, and every
// other file (tests, the bench module, fixtures, files excluded by build
// constraints) parsed into the load's file set.
func sources(pkgs []*Package) ([]source, error) {
	root, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	rel := func(name string) string {
		r, _ := filepath.Rel(root, name)
		return filepath.ToSlash(r)
	}
	var files []source
	loaded := make(map[string]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := p.Fset.File(f.Pos()).Name()
			module.fset = p.Fset
			loaded[name] = true
			files = append(files, source{rel(name), f, p.Info})
		}
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, and build caches such as .bench_build
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || loaded[path] {
			return nil
		}
		f, err := parser.ParseFile(module.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err == nil {
			files = append(files, source{rel(path), f, nil})
		}
		return err
	})
	return files, err
}

// sourcesWhere returns the repository's files whose path from the root
// satisfies keep.
func sourcesWhere(keep func(rel string) bool) []source {
	var out []source
	for _, s := range module.files {
		if keep(s.rel) {
			out = append(out, s)
		}
	}
	return out
}

// isTest reports whether rel names a _test.go file.
func isTest(rel string) bool { return strings.HasSuffix(rel, "_test.go") }

// mustPackage returns the loaded project package whose path ends in
// suffix, failing the test when there is none.
func mustPackage(t *testing.T, suffix string) *Package {
	t.Helper()
	for _, p := range loadModule(t) {
		if !p.Standard && pathMatches(p.Path, suffix) {
			return p
		}
	}
	t.Fatalf("package %s is not among the loaded packages", suffix)
	return nil
}

// declared returns the package-level object name of tp, failing the test
// when it is not declared.
func declared(t *testing.T, tp *types.Package, name string) types.Object {
	t.Helper()
	obj := tp.Scope().Lookup(name)
	if obj == nil {
		t.Fatalf("%s declares no %s", tp.Path(), name)
	}
	return obj
}

// member returns the field or method name of typ, failing the test when
// there is none.
func member(t *testing.T, typ types.Type, name string) types.Object {
	t.Helper()
	var pkg *types.Package // an unexported name is looked up from its type's package
	base := typ
	if ptr, ok := typ.(*types.Pointer); ok {
		base = ptr.Elem()
	}
	if named, ok := base.(*types.Named); ok {
		pkg = named.Obj().Pkg()
	}
	obj, _, _ := types.LookupFieldOrMethod(typ, true, pkg, name)
	if obj == nil {
		t.Fatalf("%s has no field or method %s", typ, name)
	}
	return obj
}

// imported returns the package path that p imports, failing the test when
// p does not import it.
func imported(t *testing.T, p *Package, path string) *types.Package {
	t.Helper()
	for _, tp := range p.Types.Imports() {
		if tp.Path() == path {
			return tp
		}
	}
	t.Fatalf("%s does not import %s", p.Path, path)
	return nil
}

// position renders pos for a failure message.
func position(pos token.Pos) token.Position { return module.fset.Position(pos) }

// eachCall calls fn with every call under root whose callee resolves to a
// func.
func eachCall(p *Package, root ast.Node, fn func(*ast.CallExpr, *types.Func)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := funcFor(p.Info, call); callee != nil {
				fn(call, callee)
			}
		}
		return true
	})
}

// eachIdent calls fn with every identifier under root.
func eachIdent(root ast.Node, fn func(*ast.Ident)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			fn(id)
		}
		return true
	})
}

// funcDecl returns the declaration of fn among p's files, failing the test
// when there is none.
func funcDecl(t *testing.T, p *Package, fn types.Object) *ast.FuncDecl {
	t.Helper()
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && p.Info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	t.Fatalf("no declaration of %s", fn)
	return nil
}

// selected returns the object e selects or names, or nil.
func selected(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.Ident:
		return info.Uses[e]
	}
	return nil
}

// constantIs reports whether e is a constant numerically equal to v: a
// literal, or with info any constant expression.
func constantIs(info *types.Info, e ast.Expr, v float64) bool {
	var val constant.Value
	if info != nil {
		val = info.Types[e].Value
	} else if lit, ok := ast.Unparen(e).(*ast.BasicLit); ok {
		val = constant.MakeFromLiteral(lit.Value, lit.Kind, 0)
	}
	if val == nil || val.Kind() == constant.Unknown {
		return false
	}
	f, ok := constant.Float64Val(constant.ToFloat(val))
	return ok && f == v
}

// TestStructure holds the structural guards: each subtest states one
// "exists once" property of the node and counts the declarations, call
// sites and literals behind it by their type-checked objects, or by name
// where the rule is about a name (a halved Weight, a read lock) or reads
// files the load does not, so a reformat neither passes nor fails it. Each
// subtest first finds the declarations it speaks about, so a rename or a
// failed load fails it instead of leaving it nothing to count.
func TestStructure(t *testing.T) {
	loadModule(t)
	t.Run("HotpathStaysRetired", testHotpathStaysRetired)
	t.Run("OnePushSumShareOneExchange", testOnePushSumShareOneExchange)
	t.Run("OnePayloadLayout", testOnePayloadLayout)
	t.Run("OneWayInOneWayOut", testOneWayInOneWayOut)
	t.Run("OnePreemptionRule", testOnePreemptionRule)
	t.Run("OneTypePerRecord", testOneTypePerRecord)
	t.Run("OneConnectionPerClient", testOneConnectionPerClient)
	t.Run("OneResidentIndex", testOneResidentIndex)
	t.Run("CIRunPatternsMatchTests", testCIRunPatternsMatchTests)
}

// testHotpathStaysRetired: no comment in a non-test file outside
// internal/lint carries the besteffs:hotpath directive. Its 8 roots carried
// 48 waivers; TestWirePutAllocationBudgets's allocs/op budgets guard the
// admission path instead.
func testHotpathStaysRetired(t *testing.T) {
	ignores := 0
	for _, s := range sourcesWhere(func(rel string) bool { return !isTest(rel) && !strings.HasPrefix(rel, "internal/lint/") }) {
		for _, cg := range s.file.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//lint:ignore ") {
					ignores++
				}
				if strings.Contains(c.Text, "besteffs:hotpath") {
					t.Errorf("%s: a besteffs:hotpath directive is back; no check reads it (TestWirePutAllocationBudgets guards the admission path)", position(c.Pos()))
				}
			}
		}
	}
	if ignores == 0 {
		t.Fatal("no //lint:ignore directive seen: the scan read no comments")
	}
}

// testOnePushSumShareOneExchange: a push-sum share is halved only by
// gossip.State.Split -- no file under internal/ outside internal/gossip,
// tests and fixtures included, halves a field or variable whose name ends
// in Weight (State.Weight, a wire message's ShareWeight, a new share
// type's) -- and INDEX_DIFF stays retired: INDEX_DELTA with Full set is the
// full exchange.
func testOnePushSumShareOneExchange(t *testing.T) {
	gossip := mustPackage(t, "internal/gossip")
	wire := mustPackage(t, "internal/wire")
	state := declared(t, gossip.Types, "State")
	member(t, state.Type(), "Weight")
	split := funcDecl(t, gossip, member(t, types.NewPointer(state.Type()), "Split"))
	if len(halvings(gossip.Info, split)) == 0 {
		t.Fatal("gossip.State.Split does not halve State.Weight: the share has moved")
	}
	scanned := sourcesWhere(func(rel string) bool {
		return strings.HasPrefix(rel, "internal/") && !strings.HasPrefix(rel, "internal/gossip/")
	})
	tests := 0
	for _, s := range scanned {
		if isTest(s.rel) {
			tests++
		}
		for _, pos := range halvings(s.info, s.file) {
			t.Errorf("%s: push-sum share halved outside internal/gossip (use gossip.State.Split)", position(pos))
		}
	}
	if tests == 0 {
		t.Fatal("no _test.go file under internal/ was scanned")
	}

	delta := declared(t, wire.Types, "IndexDelta")
	if full := member(t, delta.Type(), "Full"); !types.Identical(full.Type(), types.Typ[types.Bool]) {
		t.Fatalf("wire.IndexDelta.Full is %s, not bool", full.Type())
	}
	for _, s := range sourcesWhere(func(rel string) bool { return !isTest(rel) }) {
		eachIdent(s.file, func(id *ast.Ident) {
			if strings.Contains(id.Name, "IndexDiff") {
				t.Errorf("%s: %s: IndexDiff is retired; INDEX_DELTA with Full=true is the full exchange", position(id.Pos()), id.Name)
			}
		})
	}
}

// halvings returns where root halves a share -- a field or variable whose
// name ends in Weight -- by a constant: x /= 2, x / 2, x *= 0.5, x * 0.5 or
// 0.5 * x. With info a named constant counts too; without, a literal does.
func halvings(info *types.Info, root ast.Node) []token.Pos {
	share := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return strings.HasSuffix(e.Sel.Name, "Weight")
		case *ast.Ident:
			return strings.HasSuffix(e.Name, "Weight")
		}
		return false
	}
	var at []token.Pos
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == 1 && share(n.Lhs[0]) &&
				(n.Tok == token.QUO_ASSIGN && constantIs(info, n.Rhs[0], 2) ||
					n.Tok == token.MUL_ASSIGN && constantIs(info, n.Rhs[0], 0.5)) {
				at = append(at, n.Pos())
			}
		case *ast.BinaryExpr:
			if n.Op == token.QUO && share(n.X) && constantIs(info, n.Y, 2) ||
				n.Op == token.MUL && (share(n.X) && constantIs(info, n.Y, 0.5) ||
					share(n.Y) && constantIs(info, n.X, 0.5)) {
				at = append(at, n.Pos())
			}
		}
		return true
	})
	return at
}

// testOnePayloadLayout: the segment log writes nothing in place. The
// file-per-object store wrote a temp file and renamed it into place;
// internal/blob neither calls os.Rename nor names a ".tmp-" file.
func testOnePayloadLayout(t *testing.T) {
	blob := mustPackage(t, "internal/blob")
	rename := declared(t, imported(t, blob, "os"), "Rename")
	for id, obj := range blob.Info.Uses {
		if obj == rename {
			t.Errorf("%s: internal/blob calls os.Rename: payloads are appended to the segment log", position(id.Pos()))
		}
	}
	for e, tv := range blob.Info.Types {
		if tv.Value != nil && tv.Value.Kind() == constant.String && strings.Contains(constant.StringVal(tv.Value), ".tmp-") {
			t.Errorf("%s: internal/blob names a temp file: payloads are appended to the segment log", position(e.Pos()))
		}
	}
}

// testOneWayInOneWayOut: every admission (PUT, BATCH, coalesced run,
// UPDATE, REPLICATE) goes through admitShardGroup and commit, and every
// mutation ends in commit. Non-test internal/server builds one
// journal.Record of Kind journal.KindPut, calls blob.Store's PutBatch once
// and its Put never, names AppendBatch once (commit's journal.WAL call) and
// calls WAL.Append never, and names no read lock (RLock, TryRLock,
// RLocker, on any type): a shard has one writer.
func testOneWayInOneWayOut(t *testing.T) {
	server := mustPackage(t, "internal/server")
	journal := mustPackage(t, "internal/journal")
	blob := mustPackage(t, "internal/blob")
	kind := member(t, declared(t, journal.Types, "Record").Type(), "Kind")
	kindPut := declared(t, journal.Types, "KindPut")
	store := declared(t, blob.Types, "Store").Type()
	iface, ok := store.Underlying().(*types.Interface)
	if !ok {
		t.Fatalf("blob.Store is %s, not an interface", store)
	}
	member(t, store, "Put")
	member(t, store, "PutBatch")
	// storeMethod reports whether fn is blob.Store's method name, called
	// through the interface or on a type that implements it.
	storeMethod := func(fn *types.Func, name string) bool {
		recv := fn.Type().(*types.Signature).Recv()
		return fn.Name() == name && recv != nil && types.Implements(recv.Type(), iface)
	}
	wal := types.NewPointer(declared(t, journal.Types, "WAL").Type())
	appendOne := member(t, wal, "Append")
	member(t, wal, "AppendBatch")

	var puts, single, grouped, batches, appends int
	for _, f := range server.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if kv, ok := n.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok && server.Info.Uses[key] == kind && selected(server.Info, kv.Value) == kindPut {
					puts++
				}
			}
			return true
		})
		eachCall(server, f, func(call *ast.CallExpr, fn *types.Func) {
			switch {
			case storeMethod(fn, "Put"):
				single++
			case storeMethod(fn, "PutBatch"):
				grouped++
			case fn == appendOne:
				appends++
			}
		})
		eachIdent(f, func(id *ast.Ident) {
			switch {
			case id.Name == "AppendBatch":
				batches++
			case strings.HasSuffix(id.Name, "RLock") || id.Name == "RLocker":
				t.Errorf("%s: %s: a shared lock in internal/server; a shard has one writer (DESIGN.md, the mutation discipline)", position(id.Pos()), id.Name)
			}
		})
	}
	t.Logf("internal/server: %d KindPut literal(s), %d Store.Put call(s), %d Store.PutBatch call(s), %d AppendBatch name(s), %d WAL.Append call(s)",
		puts, single, grouped, batches, appends)
	if puts != 1 || single != 0 || grouped != 1 {
		t.Error("a second admission path: the KindPut record and the payload commit belong to commit alone")
	}
	if batches != 1 || appends != 0 {
		t.Error("a second journal write site: a mutation's records reach the WAL through commit's one AppendBatch")
	}
}

// testOnePreemptionRule: the Section 5.3 boundary test is written once, in
// policy.walk, which every importance planner calls: no other function
// compares a candidate's importance with anything but another candidate's,
// and walk tests it against the arriving importance exactly once. Unit.Put
// admits through Unit.PutBatch, the daemon's transaction, and never asks
// the policy itself.
func testOnePreemptionRule(t *testing.T) {
	policy := mustPackage(t, "internal/policy")
	store := mustPackage(t, "internal/store")
	walk, ok := declared(t, policy.Types, "walk").(*types.Func)
	if !ok {
		t.Fatal("policy.walk is not a func")
	}
	imp := member(t, declared(t, policy.Types, "candidate").Type(), "imp")
	params := make(map[types.Object]bool)
	sig := walk.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		params[sig.Params().At(i)] = true
	}

	boundary := 0
	for _, f := range policy.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || be.Op.Precedence() != token.EQL.Precedence() { // not a comparison
					return true
				}
				x, y := selected(policy.Info, be.X), selected(policy.Info, be.Y)
				switch {
				case (x == imp) == (y == imp): // two candidates ranked, or no candidate
				case policy.Info.Defs[fd.Name] != walk:
					t.Errorf("%s: %s compares a candidate's importance with a bound: the Section 5.3 boundary test belongs to walk", position(be.Pos()), fd.Name.Name)
				case params[x] || params[y]:
					boundary++
				}
				return true
			})
		}
	}
	if boundary != 1 {
		t.Errorf("walk tests a candidate's importance against the arrival's %d times, want 1", boundary)
	}

	unit := declared(t, store.Types, "Unit").Type()
	planners := make(map[types.Object]bool)
	fields := unit.Underlying().(*types.Struct)
	for i := 0; i < fields.NumFields(); i++ {
		v := fields.Field(i)
		if named, ok := v.Type().(*types.Named); ok && named.Obj().Pkg() == policy.Types {
			planners[v] = true
		}
	}
	if len(planners) == 0 {
		t.Fatal("store.Unit holds no policy field")
	}
	put := funcDecl(t, store, member(t, types.NewPointer(unit), "Put"))
	putBatch := member(t, types.NewPointer(unit), "PutBatch")
	viaBatch := 0
	eachCall(store, put, func(call *ast.CallExpr, fn *types.Func) {
		switch {
		case fn == putBatch:
			viaBatch++
		case fn.Pkg() == policy.Types:
			t.Errorf("%s: Unit.Put calls %s: it must be a PutBatch group of one, not a second admission transaction", position(call.Pos()), fn.FullName())
		}
	})
	ast.Inspect(put, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && planners[selected(store.Info, sel)] {
			t.Errorf("%s: Unit.Put reads the unit's policy: it must be a PutBatch group of one", position(sel.Pos()))
		}
		return true
	})
	if viaBatch == 0 {
		t.Error("Unit.Put does not call Unit.PutBatch: it must be a PutBatch group of one")
	}
}

// testOneTypePerRecord: telemetry.Span, telemetry.Event and
// telemetry.DensitySample go to the wire, the status JSON and besteffsctl
// as they are, and one generic telemetry.Ring holds each. The client hands
// out the wire's PUT, GET and STAT records: PutRequest and PutResult are
// aliases of wire.Put and wire.PutResult, and no copy of wire.ObjectMsg or
// wire.StatResult is declared. The named packages' test files count too.
func testOneTypePerRecord(t *testing.T) {
	telemetry := mustPackage(t, "internal/telemetry")
	wire := mustPackage(t, "internal/wire")
	client := mustPackage(t, "internal/client")
	for _, name := range []string{"Span", "Event", "DensitySample"} {
		if _, ok := declared(t, telemetry.Types, name).Type().Underlying().(*types.Struct); !ok {
			t.Fatalf("telemetry.%s is not a struct", name)
		}
	}
	if ring, ok := declared(t, telemetry.Types, "Ring").Type().(*types.Named); !ok || ring.TypeParams().Len() != 1 {
		t.Fatal("telemetry.Ring is not a generic type of one parameter")
	}
	for alias, of := range map[string]string{"PutRequest": "Put", "PutResult": "PutResult"} {
		obj, ok := declared(t, client.Types, alias).(*types.TypeName)
		if !ok || !obj.IsAlias() || !types.Identical(obj.Type(), declared(t, wire.Types, of).Type()) {
			t.Errorf("client.%s is not an alias of wire.%s", alias, of)
		}
	}

	// A type of one of these names declared, at any scope, in a file of the
	// package's directory, tests included, is a copy; so is a DensityRing in
	// any non-test file. The client's PutRequest and PutResult may only be
	// aliases.
	copies := map[string][]string{
		"internal/wire":      {"Span", "EventRecord", "HistorySample"},
		"internal/server":    {"StatusEvent", "StatusSample", "StatusCounters"},
		"internal/client":    {"DensitySample", "Object", "Stats", "ShardStats", "PutRequest", "PutResult"},
		"internal/telemetry": {"SpanRing", "Recorder"},
	}
	for _, s := range module.files {
		names := copies[path.Dir(s.rel)]
		ast.Inspect(s.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			alias := ts.Assign.IsValid() && (ts.Name.Name == "PutRequest" || ts.Name.Name == "PutResult")
			if !alias && slices.Contains(names, ts.Name.Name) || ts.Name.Name == "DensityRing" && !isTest(s.rel) {
				t.Errorf("%s: type %s: a second type for a record; use the telemetry types and telemetry.Ring, and the wire's records in the client", position(ts.Pos()), ts.Name.Name)
			}
			return true
		})
	}
}

// testOneConnectionPerClient: a Client's connection is its mux. No field of
// Client is or holds a net.Conn, one site in the client dials (dialNode, for
// the first dial and every redial), and mux.go holds no map: a node answers
// in arrival order, matched against the one in-flight FIFO.
func testOneConnectionPerClient(t *testing.T) {
	client := mustPackage(t, "internal/client")
	conn := declared(t, imported(t, client, "net"), "Conn").Type().Underlying().(*types.Interface)
	st, ok := declared(t, client.Types, "Client").Type().Underlying().(*types.Struct)
	if !ok {
		t.Fatal("client.Client is not a struct")
	}
	for i := 0; i < st.NumFields(); i++ {
		v := st.Field(i)
		if holds(v.Type(), conn) {
			t.Errorf("%s: Client.%s holds a net.Conn: a client's connection is its mux", position(v.Pos()), v.Name())
		}
	}

	dialNode := declared(t, client.Types, "dialNode")
	var dials []string
	for id, obj := range client.Info.Uses {
		if obj == dialNode {
			dials = append(dials, position(id.Pos()).String())
		}
	}
	if len(dials) != 1 {
		t.Errorf("dialNode is used at %d sites %v: Client.open is the one dial", len(dials), dials)
	}

	mux := declared(t, client.Types, "mux")
	var file *ast.File
	for _, f := range client.Files {
		if f.Pos() <= mux.Pos() && mux.Pos() <= f.End() {
			file = f
		}
	}
	if file == nil || filepath.Base(position(file.Pos()).Filename) != "mux.go" {
		t.Fatal("client.mux is not declared in mux.go")
	}
	for e, tv := range client.Info.Types {
		if _, ok := tv.Type.(*types.Map); ok && file.Pos() <= e.Pos() && e.Pos() <= file.End() {
			t.Errorf("%s: mux.go keys pending requests by a map: a node answers in arrival order, match with the in-flight FIFO", position(e.Pos()))
		}
	}
}

// testOneResidentIndex: the storage unit and the payload stores find a
// resident by ID through object.Index, a pointer-free table that stays at
// its live size under churn. Unit.residents and Unit.seen, MemStore.index
// and FileStore.index are object.Index values, and no struct field in
// non-test internal/store or internal/blob is a map keyed by object.ID --
// such a map grows under a full node's delete-and-insert churn and the
// collector scans it. The check first has to find the field of a struct
// built by hand.
func testOneResidentIndex(t *testing.T) {
	object := mustPackage(t, "internal/object")
	store := mustPackage(t, "internal/store")
	blob := mustPackage(t, "internal/blob")
	id := declared(t, object.Types, "ID").Type()
	index := declared(t, object.Types, "Index").Type()
	for _, f := range []struct {
		p            *Package
		owner, field string
	}{{store, "Unit", "residents"}, {store, "Unit", "seen"}, {blob, "MemStore", "index"}, {blob, "FileStore", "index"}} {
		if v := member(t, declared(t, f.p.Types, f.owner).Type(), f.field); !types.Identical(v.Type(), index) {
			t.Errorf("%s.%s is %s, not object.Index", f.owner, f.field, v.Type())
		}
	}

	byID := types.NewField(token.NoPos, nil, "residents", types.NewMap(id, types.Typ[types.Int]), false)
	hand := map[*ast.Ident]types.Object{
		ast.NewIdent("residents"): byID,
		ast.NewIdent("runOf"):     types.NewField(token.NoPos, nil, "runOf", types.NewMap(types.Typ[types.String], types.Typ[types.Int]), false),
		ast.NewIdent("local"):     types.NewVar(token.NoPos, nil, "local", types.NewMap(id, types.Typ[types.Bool])),
	}
	if got := idMapFields(hand, id); len(got) != 1 || got[0] != byID {
		t.Fatalf("on a hand-built struct the check reports %v, want the residents field alone", got)
	}

	for _, p := range []*Package{store, blob} {
		fields := 0
		for _, obj := range p.Info.Defs {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				fields++
			}
		}
		if fields == 0 {
			t.Fatalf("%s: no struct field seen", p.Path)
		}
		for _, v := range idMapFields(p.Info.Defs, id) {
			t.Errorf("%s: field %s is a map keyed by object.ID: find residents through an object.Index", position(v.Pos()), v.Name())
		}
	}
}

// idMapFields returns the struct fields among defs whose type is a map keyed
// by id.
func idMapFields(defs map[*ast.Ident]types.Object, id types.Type) []*types.Var {
	var out []*types.Var
	for _, obj := range defs {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() {
			continue
		}
		if m, ok := v.Type().Underlying().(*types.Map); ok && types.Identical(m.Key(), id) {
			out = append(out, v)
		}
	}
	return out
}

// holds reports whether values of typ are, point to or contain (through
// arrays, slices, maps or channels) a value implementing iface.
func holds(typ types.Type, iface *types.Interface) bool {
	if types.Implements(typ, iface) {
		return true
	}
	switch u := typ.Underlying().(type) {
	case *types.Pointer:
		return holds(u.Elem(), iface)
	case *types.Slice:
		return holds(u.Elem(), iface)
	case *types.Array:
		return holds(u.Elem(), iface)
	case *types.Chan:
		return holds(u.Elem(), iface)
	case *types.Map:
		return holds(u.Key(), iface) || holds(u.Elem(), iface)
	}
	return false
}

// testCIRunPatternsMatchTests: every test name or prefix in a -run pattern
// of .github/workflows/ci.yml matches a test function in a package its go
// test command runs. `go test -run` with no match passes with "no tests to
// run", so a renamed test would otherwise leave its CI step running
// nothing. The check first has to find the stale half of a pattern built by
// hand.
func testCIRunPatternsMatchTests(t *testing.T) {
	tests := make(map[string][]string) // package dir -> its test functions
	for _, s := range sourcesWhere(isTest) {
		for _, d := range s.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
				(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				tests[path.Dir(s.rel)] = append(tests[path.Dir(s.rel)], fd.Name.Name)
			}
		}
	}
	const stale = `
      - name: a step whose test was renamed
        run: >-
          go test -race -count=1
          -run 'TestStructure|TestNoSuchTest'
          -v ./internal/lint/
      - name: a fuzz step runs no test on purpose
        run: go test -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/wire
`
	got, _ := staleRunPatterns(stale, tests)
	if want := []string{`"TestNoSuchTest" matches no test in ./internal/lint/`}; !slices.Equal(got, want) {
		t.Fatalf("on a hand-built stale pattern the check reports %q, want %q", got, want)
	}

	ci, err := os.ReadFile(filepath.Join(moduleRoot, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	found, checked := staleRunPatterns(string(ci), tests)
	for _, f := range found {
		t.Errorf("ci.yml: %s", f)
	}
	if checked == 0 {
		t.Fatal("no -run pattern found in ci.yml: the scan read no go test command")
	}
}

// staleRunPatterns returns, for the go test commands of a CI workflow, every
// alternative of a -run pattern that matches no test function of the
// packages the command runs, and how many alternatives it checked. An
// alternative that can match no name at all ('^$', run before -fuzz or
// -bench) is skipped; only the top-level name of a subtest path counts.
func staleRunPatterns(ci string, tests map[string][]string) (stale []string, checked int) {
	for _, cmd := range runCommands(ci) {
		f := strings.Fields(cmd)
		if len(f) < 2 || f[0] != "go" || f[1] != "test" {
			continue
		}
		var pattern string
		var pkgs []string
		for i, arg := range f {
			switch {
			case arg == "-run" && i+1 < len(f):
				pattern = strings.Trim(f[i+1], `'"`)
			case strings.HasPrefix(arg, "-run="):
				pattern = strings.Trim(strings.TrimPrefix(arg, "-run="), `'"`)
			case strings.HasPrefix(arg, "./"):
				pkgs = append(pkgs, arg)
			}
		}
		if pattern == "" {
			continue
		}
		var names []string
		for dir, fns := range tests {
			for _, p := range pkgs {
				p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
				if p == dir || p == "..." || strings.HasSuffix(p, "/...") && strings.HasPrefix(dir+"/", strings.TrimSuffix(p, "...")) {
					names = append(names, fns...)
				}
			}
		}
		for _, alt := range strings.Split(pattern, "|") {
			top, _, _ := strings.Cut(alt, "/")
			if strings.Trim(top, "^$") == "" {
				continue
			}
			checked++
			re, err := regexp.Compile(top)
			if err != nil {
				stale = append(stale, fmt.Sprintf("%q does not compile: %v", top, err))
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				stale = append(stale, fmt.Sprintf("%q matches no test in %s", top, strings.Join(pkgs, " ")))
			}
		}
	}
	return stale, checked
}

// runCommands returns the shell commands of a workflow's run: keys, one per
// line of a literal block, a folded block joined into one line.
func runCommands(ci string) []string {
	indent := func(line string) int { return len(line) - len(strings.TrimLeft(line, " ")) }
	lines := strings.Split(ci, "\n")
	var cmds []string
	for i := 0; i < len(lines); i++ {
		key, body, ok := strings.Cut(strings.TrimSpace(lines[i]), "run:")
		if !ok || key != "" && key != "- " {
			continue
		}
		body = strings.TrimSpace(body)
		if body != "|" && body != ">-" && body != ">" {
			cmds = append(cmds, body)
			continue
		}
		var block []string
		for at := indent(lines[i]); i+1 < len(lines) && (strings.TrimSpace(lines[i+1]) == "" || indent(lines[i+1]) > at); i++ {
			block = append(block, strings.TrimSpace(lines[i+1]))
		}
		if body == "|" {
			cmds = append(cmds, strings.Split(strings.ReplaceAll(strings.Join(block, "\n"), "\\\n", " "), "\n")...)
		} else {
			cmds = append(cmds, strings.Join(block, " "))
		}
	}
	return cmds
}
