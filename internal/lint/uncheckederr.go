package lint

import (
	"go/ast"
	"go/types"
)

// UncheckedErrAnalyzer flags dropped errors on the durability path. PR 3's
// crash-consistency guarantee ("zero acknowledged appends lost at any
// crash point") only holds if every journal append, WAL sync/barrier,
// checkpoint write, blob mutation and write-path Close is checked: an
// ignored short write is an acknowledged mutation that recovery will never
// see. The check covers:
//
//   - methods named Append, Sync or Barrier whose final result is error,
//     anywhere in the repository (journal.WAL matches by construction);
//   - Put/Delete/Corrupt on internal/blob types (payload mutations);
//   - Close on internal/journal types;
//   - journal.WriteCheckpoint;
//   - Close on an *os.File opened in the same file via os.Create or
//     os.OpenFile (a write-path close: the final flush can fail).
//
// Dropping covers plain call statements, defer/go statements, and
// blank-assigning the error result.
var UncheckedErrAnalyzer = &Analyzer{
	Name: "uncheckederr",
	Doc:  "flag dropped errors from journal, WAL, checkpoint, blob and write-path Close calls",
	Run:  runUncheckedErr,
}

// writeMethodNames must be checked on any receiver: these names are the
// repository's durability verbs.
var writeMethodNames = map[string]bool{"Append": true, "Sync": true, "Barrier": true}

// blobMutators are the payload-store mutations.
var blobMutators = map[string]bool{"Put": true, "PutBatch": true, "Delete": true, "Corrupt": true}

func runUncheckedErr(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		writeFiles := collectWriteFiles(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					checkDropped(pass, writeFiles, call, "")
				}
			case *ast.DeferStmt:
				checkDropped(pass, writeFiles, stmt.Call, "defer ")
			case *ast.GoStmt:
				checkDropped(pass, writeFiles, stmt.Call, "go ")
			case *ast.AssignStmt:
				checkBlankError(pass, writeFiles, stmt)
			}
			return true
		})
	}
}

// checkDropped reports a statement-position call whose error result never
// existed as a value.
func checkDropped(pass *Pass, writeFiles map[*types.Var]bool, call *ast.CallExpr, how string) {
	why := mustCheck(pass, writeFiles, call)
	if why == "" {
		return
	}
	pass.Reportf(call.Pos(), "%s%s drops its error: %s", how, callName(pass, call), why)
}

// checkBlankError reports error results explicitly discarded into blanks.
func checkBlankError(pass *Pass, writeFiles map[*types.Var]bool, stmt *ast.AssignStmt) {
	if len(stmt.Rhs) != 1 {
		return
	}
	call, ok := stmt.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	why := mustCheck(pass, writeFiles, call)
	if why == "" {
		return
	}
	results := resultTypes(pass, call)
	if len(results) != len(stmt.Lhs) {
		return
	}
	for i, lhs := range stmt.Lhs {
		id, ok := lhs.(*ast.Ident)
		if ok && id.Name == "_" && isErrorType(results[i]) {
			pass.Reportf(stmt.Pos(), "%s discards its error into _: %s", callName(pass, call), why)
			return
		}
	}
}

// mustCheck classifies the call; a non-empty string is the reason its
// error result is load-bearing.
func mustCheck(pass *Pass, writeFiles map[*types.Var]bool, call *ast.CallExpr) string {
	fn := funcFor(pass.Pkg.Info, call)
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return ""
	}
	if sig.Recv() == nil {
		if fn.Name() == "WriteCheckpoint" && declaredIn(fn, "internal/journal") {
			return "a lost checkpoint silently lengthens recovery and may orphan WAL segments"
		}
		return ""
	}
	switch {
	case writeMethodNames[fn.Name()]:
		return "an unchecked journalled write acknowledges a mutation recovery will never replay"
	case blobMutators[fn.Name()] && declaredIn(fn, "internal/blob"):
		return "a failed blob mutation desynchronizes payloads from unit metadata"
	case fn.Name() == "Close" && declaredIn(fn, "internal/journal"):
		return "journal Close performs the final flush and sync; its error is the last chance to detect a torn tail"
	case fn.Name() == "Close" && isWriteFileClose(pass, writeFiles, call):
		return "Close on a file opened for writing flushes buffered bytes; ignoring it can lose the tail"
	}
	return ""
}

// collectWriteFiles gathers the local *os.File variables opened for
// writing in this file (os.Create / os.OpenFile). Tracking is by variable
// object, so shadowing and reuse across functions resolve exactly.
func collectWriteFiles(pass *Pass, file *ast.File) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) == 0 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcFor(pass.Pkg.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
			return true
		}
		if fn.Name() != "Create" && fn.Name() != "OpenFile" {
			return true
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := pass.Pkg.Info.Defs[id].(*types.Var); ok {
			out[v] = true
		} else if v, ok := pass.Pkg.Info.Uses[id].(*types.Var); ok {
			out[v] = true
		}
		return true
	})
	return out
}

// isWriteFileClose reports whether the call is x.Close() on a tracked
// write-opened file variable.
func isWriteFileClose(pass *Pass, writeFiles map[*types.Var]bool, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := pass.Pkg.Info.Uses[id].(*types.Var)
	return ok && writeFiles[v]
}

// lastResultIsError reports whether the signature's final result is error.
func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	return res.Len() > 0 && isErrorType(res.At(res.Len()-1).Type())
}

// resultTypes returns the call's result tuple.
func resultTypes(pass *Pass, call *ast.CallExpr) []types.Type {
	tv, ok := pass.Pkg.Info.Types[call]
	if !ok {
		return nil
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		out := make([]types.Type, tuple.Len())
		for i := range out {
			out[i] = tuple.At(i).Type()
		}
		return out
	}
	return []types.Type{tv.Type}
}

// callName renders the callee for diagnostics ((*journal.WAL).Append, ...).
func callName(pass *Pass, call *ast.CallExpr) string {
	fn := funcFor(pass.Pkg.Info, call)
	if fn == nil {
		return "call"
	}
	return fn.FullName()
}
