package lint

import (
	"go/ast"
	"go/types"
)

// eventPathEntry declares, for one package, the functions that make
// admission, eviction, repair or membership decisions and therefore must
// leave a flight-recorder event behind. The table is checked the same way
// lockdiscipline's guard table is: when a package matching PkgSuffix is
// analyzed, every named function must exist, so a rename or refactor that
// would silently disarm the check fails the lint run instead.
type eventPathEntry struct {
	// PkgSuffix selects the package ("internal/server" matches both the
	// real module path and fixture modules).
	PkgSuffix string
	// TypeName is the method receiver's named type; empty for
	// package-level functions.
	TypeName string
	// Funcs are the decision-path function names.
	Funcs []string
}

// eventPaths is the repository's documented decision-path map. Sources: the
// server records every admission verdict -- a put's, an update's and a
// replica's alike -- in recordAdmission, and scrub quarantines and their
// recoveries where they are decided; New installs the eviction hook; the repair manager records ingest pushes and anti-entropy pulls; the
// membership agent records alive transitions in its sweep.
var eventPaths = []eventPathEntry{
	{
		PkgSuffix: "internal/server",
		TypeName:  "Server",
		Funcs:     []string{"recordAdmission", "quarantine", "recoverQuarantined"},
	},
	{
		PkgSuffix: "internal/server",
		Funcs:     []string{"New"},
	},
	{
		PkgSuffix: "internal/repair",
		TypeName:  "Manager",
		Funcs:     []string{"PushSync", "pull"},
	},
	{
		PkgSuffix: "internal/member",
		TypeName:  "Agent",
		Funcs:     []string{"sweepLocked", "applyConfigLocked"},
	},
}

// EventRecordedAnalyzer enforces the flight-recorder contract on the
// decision paths named in the table: each must call telemetry's
// (*Recorder).Record somewhere in its body (closures count -- the eviction
// hook installed by server.New records from inside a func literal). The
// analysis is intraprocedural by design: a decision path that delegates its
// event to a helper hides the contract from review, so the Record call has
// to be visible where the decision is made.
var EventRecordedAnalyzer = &Analyzer{
	Name: "eventrecorded",
	Doc:  "admission/eviction/repair decision paths must record a flight-recorder event",
	Run:  runEventRecorded,
}

func runEventRecorded(pass *Pass) {
	for _, entry := range eventPaths {
		if !pathMatches(pass.Pkg.Path, entry.PkgSuffix) {
			continue
		}
		for _, name := range entry.Funcs {
			fd := findEventPath(pass, entry, name)
			if fd == nil {
				continue
			}
			if !recordsEvent(pass, fd) {
				pass.Reportf(fd.Pos(),
					"decision path %s records no flight-recorder event (event table: %s)",
					eventPathName(entry, name), entry.PkgSuffix)
			}
		}
	}
}

// eventPathName renders a table row's function for diagnostics.
func eventPathName(entry eventPathEntry, name string) string {
	if entry.TypeName == "" {
		return name
	}
	return entry.TypeName + "." + name
}

// findEventPath resolves one table row to its declaration, reporting rows
// that no longer name a real function so the table cannot silently rot.
func findEventPath(pass *Pass, entry eventPathEntry, name string) *ast.FuncDecl {
	scope := pass.Pkg.Types.Scope()
	var want *types.Func
	if entry.TypeName == "" {
		if fn, ok := scope.Lookup(name).(*types.Func); ok {
			want = fn
		}
	} else if obj := scope.Lookup(entry.TypeName); obj != nil {
		if named, ok := obj.Type().(*types.Named); ok {
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Name() == name {
					want = m
				}
			}
		}
	}
	if want == nil {
		pass.Reportf(filePos(pass.Pkg, 0),
			"event table names %s.%s which does not exist", entry.PkgSuffix, eventPathName(entry, name))
		return nil
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pass.Pkg.Info.Defs[fd.Name] == want {
				return fd
			}
		}
	}
	return nil
}

// recordsEvent reports whether the body contains a call resolving to the
// telemetry flight recorder's Record method. Span rings and density rings
// have Record methods too; only the event Recorder satisfies the contract.
func recordsEvent(pass *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := funcFor(pass.Pkg.Info, call)
		if fn == nil || fn.Name() != "Record" || !declaredIn(fn, "internal/telemetry") {
			return true
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && namedOf(recv.Type()) == "Recorder" {
			found = true
		}
		return !found
	})
	return found
}

// namedOf returns the name of t's (possibly pointer-wrapped) named type.
func namedOf(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
