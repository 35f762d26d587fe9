package lint

import (
	"go/ast"
	"go/types"
)

// ErrcheckDurabilityAnalyzer flags discarded results of the calls whose
// outcome carries a durability or locking decision: WAL appends and
// flushes, commit/abort, checkpointing, lock acquisition, and buffer
// flushes. Ignoring any of these silently trades away the guarantee the
// call exists to provide — an unchecked Flush error means the commit it
// was ordering is not actually durable, and an unchecked TryAcquire
// result means code proceeds as if it held a lock it was refused.
var ErrcheckDurabilityAnalyzer = &Analyzer{
	Name: "errcheckdurability",
	Doc: "results of WAL append/flush, Commit/CommitLazy/Abort, Acquire/TryAcquire, " +
		"buffer flushes, and replication append/apply/ship must not be discarded",
	Run: runErrcheckDurability,
}

// durabilityMethods lists the (type, methods) pairs whose results are
// load-bearing.
var durabilityMethods = []struct {
	pkg, typ string
	methods  []string
}{
	{walPath, "Log", []string{"Append", "AppendPageUpdate", "Flush", "Checkpoint"}},
	{txnPath, "Manager", []string{"Commit", "CommitLazy", "CommitAppend", "FinishCommit", "Abort", "Checkpoint"}},
	{txnPath, "LockManager", []string{"Acquire", "TryAcquire"}},
	{txnPath, "Txn", []string{"Lock"}},
	{bufferPath, "Manager", []string{"FlushAll", "FlushPages"}},
	// Bulk-ingest entry points: a discarded AppendPacked/BulkBuild error
	// leaks unpublished pages, a discarded InstallRoot error publishes
	// nothing while the caller thinks it committed, and a discarded
	// FreePages error silently leaks the detached old root.
	{accessPath, "HeapFile", []string{"AppendPacked"}},
	{indexPath, "BTree", []string{"BulkBuild", "InstallRoot", "FreePages"}},
	// Replication ack/apply entry points: these results ARE the
	// durability story behind an async-commit ack. A discarded
	// FollowerWAL.Append/Sync error acks a record the follower never
	// persisted, or hides the ErrSnapshotNeeded signal that triggers a
	// re-bootstrap; a discarded ApplyBatch error advances a frontier
	// over effects that were not applied; a discarded
	// ReplicaReader.Flush error promotes over an incomplete device
	// image.
	{replicatePath, "FollowerWAL", []string{"Append", "Sync"}},
	{rootPath, "ReplicaReader", []string{"ApplyBatch", "Flush"}},
}

// durabilityCall resolves call to one of the guarded methods, returning
// its receiver type and name for the diagnostic.
func durabilityCall(info *types.Info, call *ast.CallExpr) (typ, method string, ok bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", "", false
	}
	for _, g := range durabilityMethods {
		for _, m := range g.methods {
			if isMethodOn(fn, g.pkg, g.typ, m) {
				return g.typ, m, true
			}
		}
	}
	return "", "", false
}

func runErrcheckDurability(pass *Pass) error {
	info := pass.TypesInfo

	report := func(call *ast.CallExpr, typ, method string) {
		pass.Reportf(call.Pos(),
			"result of (%s).%s discarded: durability and locking outcomes must be checked", typ, method)
	}

	// checkStmt flags bare-call and blank-assignment discards; the
	// result positions that matter are the error and bool results.
	checkExprStmt := func(call *ast.CallExpr) {
		if typ, method, ok := durabilityCall(info, call); ok {
			report(call, typ, method)
		}
	}
	checkAssign := func(as *ast.AssignStmt) {
		if len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		typ, method, ok := durabilityCall(info, call)
		if !ok {
			return
		}
		fn := calleeFunc(info, call)
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil {
			return
		}
		// All error/bool results assigned to blank → the outcome is
		// discarded even if other results (an LSN, a record) are kept.
		discarded := false
		checked := false
		for i := 0; i < sig.Results().Len() && i < len(as.Lhs); i++ {
			rt := sig.Results().At(i).Type()
			if !isErrorType(rt) && rt != types.Typ[types.Bool] && !isBasicBool(rt) {
				continue
			}
			if id, isIdent := as.Lhs[i].(*ast.Ident); isIdent && id.Name == "_" {
				discarded = true
			} else {
				checked = true
			}
		}
		if discarded && !checked {
			report(call, typ, method)
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					checkExprStmt(call)
				}
			case *ast.DeferStmt:
				checkExprStmt(s.Call)
			case *ast.GoStmt:
				checkExprStmt(s.Call)
			case *ast.AssignStmt:
				checkAssign(s)
			}
			return true
		})
	}
	return nil
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func isBasicBool(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}
