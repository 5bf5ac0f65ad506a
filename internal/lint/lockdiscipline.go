package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// guardEntry declares, for one struct type, which fields a mutex guards.
// The table is checked: when a package matching PkgSuffix is analyzed, the
// type, the mutex field and every guarded field must exist (and the mutex
// must be a sync.Mutex or sync.RWMutex), so a rename or refactor that
// would silently disarm the check fails the lint run instead.
type guardEntry struct {
	// PkgSuffix selects the package ("internal/store" matches both the
	// real module path and fixture modules).
	PkgSuffix string
	// TypeName is the struct type owning the fields.
	TypeName string
	// Mutex is the guarding field's name.
	Mutex string
	// Fields are the guarded field names.
	Fields []string
}

// lockGuards is the repository's documented field-to-mutex map. Sources:
// store.Unit's mu serializes all resident-set state (store.go); the
// DensityRing's mu guards its ring buffer (sampler.go); each server shard's
// mu, its write lock, serializes every mutation's journal records into that
// shard's WAL and makes the coordinated checkpoint a clean cut over it
// (server.go's shard comment).
var lockGuards = []guardEntry{
	{
		PkgSuffix: "internal/store",
		TypeName:  "Unit",
		Mutex:     "mu",
		Fields:    []string{"free", "residents", "order", "counters"},
	},
	{
		PkgSuffix: "internal/store",
		TypeName:  "DensityRing",
		Mutex:     "mu",
		Fields:    []string{"buf", "next", "full"},
	},
	{
		PkgSuffix: "internal/server",
		TypeName:  "shard",
		Mutex:     "mu",
		Fields:    []string{"wal"},
	},
}

// LockDisciplineAnalyzer enforces the documented mutex protocol on
// exported methods: an exported method of a guarded type that touches a
// guarded field must take (or read-take) the documented mutex somewhere in
// its body. Methods whose names end in "Locked" declare a caller-held lock
// and are exempt. The analysis is intraprocedural by design -- it encodes
// the repository convention that exported methods are lock boundaries.
var LockDisciplineAnalyzer = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "exported methods touching mutex-guarded fields must hold the documented mutex",
	Run:  runLockDiscipline,
}

func runLockDiscipline(pass *Pass) {
	for _, entry := range lockGuards {
		if !pathMatches(pass.Pkg.Path, entry.PkgSuffix) {
			continue
		}
		named := checkGuardEntry(pass, entry)
		if named == nil {
			continue
		}
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil {
					continue
				}
				if !fd.Name.IsExported() || strings.HasSuffix(fd.Name.Name, "Locked") {
					continue
				}
				recv := receiverVar(pass, fd, named)
				if recv == nil {
					continue
				}
				checkMethodLocking(pass, entry, fd, recv)
			}
		}
	}
}

// checkGuardEntry validates the annotation row against the type-checked
// package and returns the guarded named type (nil if validation failed).
func checkGuardEntry(pass *Pass, entry guardEntry) *types.Named {
	scope := pass.Pkg.Types.Scope()
	obj := scope.Lookup(entry.TypeName)
	if obj == nil {
		pass.Reportf(filePos(pass.Pkg, 0),
			"guard table names type %s.%s which does not exist", entry.PkgSuffix, entry.TypeName)
		return nil
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		pass.Reportf(obj.Pos(), "guard table type %s is not a named type", entry.TypeName)
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(obj.Pos(), "guard table type %s is not a struct", entry.TypeName)
		return nil
	}
	fields := make(map[string]*types.Var, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i).Name()] = st.Field(i)
	}
	mu, ok := fields[entry.Mutex]
	if !ok {
		pass.Reportf(obj.Pos(), "guard table mutex %s.%s does not exist", entry.TypeName, entry.Mutex)
		return nil
	}
	if !isSyncLock(mu.Type()) {
		pass.Reportf(mu.Pos(), "guard table mutex %s.%s is not a sync.Mutex or sync.RWMutex", entry.TypeName, entry.Mutex)
		return nil
	}
	valid := true
	for _, name := range entry.Fields {
		if _, ok := fields[name]; !ok {
			pass.Reportf(obj.Pos(), "guard table field %s.%s does not exist", entry.TypeName, name)
			valid = false
		}
	}
	if !valid {
		return nil
	}
	return named
}

// receiverVar returns the method's receiver variable when the receiver's
// base type is the guarded named type.
func receiverVar(pass *Pass, fd *ast.FuncDecl, named *types.Named) *types.Var {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	id := fd.Recv.List[0].Names[0]
	v, ok := pass.Pkg.Info.Defs[id].(*types.Var)
	if !ok {
		return nil
	}
	t := v.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if got, ok := t.(*types.Named); ok && got.Obj() == named.Obj() {
		return v
	}
	return nil
}

// checkMethodLocking reports guarded-field accesses in a method body that
// never takes the documented mutex.
func checkMethodLocking(pass *Pass, entry guardEntry, fd *ast.FuncDecl, recv *types.Var) {
	guarded := make(map[string]bool, len(entry.Fields))
	for _, f := range entry.Fields {
		guarded[f] = true
	}
	locked := false
	var firstAccess *ast.SelectorExpr
	var accessedField string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// recv.<mutex>.Lock() / recv.<mutex>.RLock().
		if isLockCallName(sel.Sel.Name) {
			if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && inner.Sel.Name == entry.Mutex {
				if iid, ok := ast.Unparen(inner.X).(*ast.Ident); ok {
					if iv, ok := pass.Pkg.Info.Uses[iid].(*types.Var); ok && iv == recv {
						locked = true
					}
				}
			}
			return true
		}
		// recv.<guarded field>.
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if v, ok := pass.Pkg.Info.Uses[id].(*types.Var); ok && v == recv &&
				guarded[sel.Sel.Name] && firstAccess == nil {
				firstAccess = sel
				accessedField = sel.Sel.Name
			}
		}
		return true
	})
	if firstAccess != nil && !locked {
		pass.Reportf(firstAccess.Pos(),
			"exported method %s.%s reads guarded field %s without holding %s (guard table: %s)",
			entry.TypeName, fd.Name.Name, accessedField, entry.Mutex, entry.PkgSuffix)
	}
}

// isLockCallName reports a mutex acquisition method.
func isLockCallName(name string) bool {
	return name == "Lock" || name == "RLock"
}

// isSyncLock reports whether t is sync.Mutex or sync.RWMutex.
func isSyncLock(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
