package lint

import (
	"go/ast"
	"go/types"
)

// LatchOrderAnalyzer enforces the engine's latch/lock ordering rule:
// never block on the lock manager while holding a page latch. A page
// latch is a short-term mutex on a buffer frame; parking under one (for
// a lock queue, another transaction's commit, deadlock detection) can
// stall every reader of that page and invert the latch-before-lock
// order the crabbing protocol depends on. TryAcquire is the only legal
// lock-manager call under a latch — callers that are refused must
// release their latches first and retry with the blocking Acquire.
//
// The check: within a function, after a latching acquire (PinLatched,
// NewPageLatched, or the B+tree crabbing helpers) and before the
// matching release, calls to LockManager.Acquire or Txn.Lock are
// flagged. No index API runs a caller's function under a latch, so a
// function body is the whole scope a latch can be held across.
var LatchOrderAnalyzer = &Analyzer{
	Name: "latchorder",
	Doc: "no blocking LockManager.Acquire or Txn.Lock while a page latch is held; " +
		"TryAcquire is the only legal lock call under a latch",
	Run: runLatchOrder,
}

// latchDelta classifies a call's effect on the held-latch count:
// +1 for acquires, -1 for releases, 0 otherwise.
func latchDelta(info *types.Info, call *ast.CallExpr) int {
	fn := calleeFunc(info, call)
	if fn == nil {
		return 0
	}
	switch {
	case isMethodOn(fn, bufferPath, "Manager", "PinLatched"),
		isMethodOn(fn, bufferPath, "Manager", "NewPageLatched"),
		isMethodOn(fn, indexPath, "BTree", "latch"),
		isMethodOn(fn, indexPath, "BTree", "metaLatch"),
		isMethodOn(fn, indexPath, "BTree", "descendToLeaf"),
		isMethodOn(fn, indexPath, "BTree", "newNodeLatched"):
		return 1
	case isMethodOn(fn, bufferPath, "Manager", "UnpinLatched"),
		isMethodOn(fn, indexPath, "BTree", "unlatch"),
		isMethodOn(fn, indexPath, "BTree", "metaUnlatch"):
		return -1
	}
	return 0
}

// isBlockingLock reports whether the call can park on the lock manager.
func isBlockingLock(info *types.Info, call *ast.CallExpr) (name string, ok bool) {
	fn := calleeFunc(info, call)
	switch {
	case isMethodOn(fn, txnPath, "LockManager", "Acquire"):
		return "LockManager.Acquire", true
	case isMethodOn(fn, txnPath, "Txn", "Lock"):
		return "Txn.Lock", true
	}
	return "", false
}

func runLatchOrder(pass *Pass) error {
	info := pass.TypesInfo

	// Source-order latch counting per function body. Deferred releases
	// deliberately do not decrement — a latch released only by defer is
	// held at every blocking call that follows, which is exactly the
	// condition being flagged.
	checkBody := func(body *ast.BlockStmt) {
		held := 0
		inspectShallow(body, func(n ast.Node) bool {
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, blocking := isBlockingLock(info, call); blocking && held > 0 {
				pass.Reportf(call.Pos(),
					"blocking %s while a page latch may be held: use TryAcquire, or release latches before blocking", name)
			}
			if d := latchDelta(info, call); d != 0 {
				held += d
				if held < 0 {
					held = 0
				}
			}
			return true
		})
	}

	for _, f := range pass.Files {
		funcBodies(f, func(_ *ast.FuncType, body *ast.BlockStmt) { checkBody(body) })
	}
	return nil
}
