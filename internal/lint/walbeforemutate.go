package lint

import (
	"go/ast"
	"go/types"
)

// WALBeforeMutateAnalyzer enforces write-ahead logging on page
// mutations: code that pins a buffer frame must not store into the
// frame's bytes directly. Raw slice stores bypass the WAL, so the
// mutation has no before/after image — recovery can neither redo it
// after a crash nor undo it after an abort, and the page LSN the
// flush-ordering protocol depends on is never advanced. All mutations
// flow through the logged helpers: access.MutatePage /
// access.LogLatchedMutation / Heap.mutatePage (which append a
// wal.RecUpdate before the store) or buffer.Manager.UpdatePage. Replaying
// a record that is already in a log — recovery, a follower applying a
// shipped record, a physical rollback — goes through wal.Record.Redo /
// UndoPhysical, the only functions that copy record bytes into a page;
// being calls, not stores, they pass without a suppression.
//
// The analyzer is intra-procedural by design: it flags stores whose
// destination derives from a frame pinned in the same function.
// Functions that receive a *storage.Page parameter are the callee side
// of the logged-mutation protocol (the helper logs around the
// callback), so their stores are not flagged. The raw layers below the
// WAL — internal/storage, internal/buffer, internal/wal — are exempt.
var WALBeforeMutateAnalyzer = &Analyzer{
	Name: "walbeforemutate",
	Doc: "writes to pinned page bytes must flow through a logged helper " +
		"(AppendPageUpdate/MutatePage/LogLatchedMutation/UpdatePage), never raw slice stores",
	Run: runWALBeforeMutate,
}

// walExemptPkgs are the layers at or below the WAL itself, where raw
// frame stores are the implementation of logging and recovery.
var walExemptPkgs = map[string]bool{
	"repro/internal/storage": true,
	"repro/internal/buffer":  true,
	"repro/internal/wal":     true,
}

// isPinCall reports whether call pins a buffer frame.
func isPinCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return isMethodOn(fn, bufferPath, "Manager", "Pin") ||
		isMethodOn(fn, bufferPath, "Manager", "PinLatched") ||
		isMethodOn(fn, bufferPath, "Manager", "NewPage") ||
		isMethodOn(fn, bufferPath, "Manager", "NewPageLatched")
}

func runWALBeforeMutate(pass *Pass) error {
	if walExemptPkgs[pass.PkgPath] {
		return nil
	}
	info := pass.TypesInfo

	checkBody := func(body *ast.BlockStmt) {
		// Pass 1: variables bound to frames pinned in this function,
		// plus pages/byte-slices derived from them.
		pinned := map[*types.Var]bool{}
		derived := map[*types.Var]bool{}
		isTracked := func(v *types.Var) bool { return v != nil && (pinned[v] || derived[v]) }

		// baseVar strips indexing, slicing, Data/Page()/Payload()/Bytes()
		// chains down to the variable the destination aliases.
		var baseVar func(e ast.Expr) *types.Var
		baseVar = func(e ast.Expr) *types.Var {
			switch v := ast.Unparen(e).(type) {
			case *ast.Ident:
				return objOf(info, v)
			case *ast.IndexExpr:
				return baseVar(v.X)
			case *ast.SliceExpr:
				return baseVar(v.X)
			case *ast.StarExpr:
				return baseVar(v.X)
			case *ast.SelectorExpr:
				switch v.Sel.Name {
				case "Data", "Raw", "buf":
					return baseVar(v.X)
				}
				return nil
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok {
					switch sel.Sel.Name {
					case "Page", "Payload", "Bytes", "Header":
						return baseVar(sel.X)
					}
				}
				return nil
			}
			return nil
		}

		inspectShallow(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			call, isCall := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if isCall && isPinCall(info, call) && len(as.Lhs) > 0 {
				if v := objOf(info, as.Lhs[0]); v != nil {
					pinned[v] = true
				}
				return true
			}
			// p := f.Page(), b := f.Data, q := p — derivation chains.
			if len(as.Lhs) == 1 {
				if src := baseVar(as.Rhs[0]); isTracked(src) {
					// Only track aliases, not value copies of bytes.
					if v := objOf(info, as.Lhs[0]); v != nil {
						if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
							derived[v] = true
						} else if _, isPtr := v.Type().(*types.Pointer); isPtr {
							derived[v] = true
						} else if isNamedType(v.Type(), "repro/internal/storage", "Page") {
							derived[v] = true
						}
					}
				}
			}
			return true
		})

		if len(pinned) == 0 {
			return
		}

		// Pass 2: flag raw stores into tracked destinations.
		inspectShallow(body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					switch lhs.(type) {
					case *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr:
						if b := baseVar(lhs); isTracked(b) {
							pass.Reportf(lhs.Pos(),
								"raw store into pinned page bytes bypasses the WAL: "+
									"use AppendPageUpdate/MutatePage/LogLatchedMutation/UpdatePage so recovery sees a before/after image")
						}
					}
				}
			case *ast.CallExpr:
				fn := calleeFunc(info, v)
				var dst ast.Expr
				switch {
				case fn == nil && isBuiltinCopy(info, v) && len(v.Args) == 2:
					dst = v.Args[0]
				case fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" &&
					(fn.Name() == "PutUint16" || fn.Name() == "PutUint32" || fn.Name() == "PutUint64") &&
					len(v.Args) >= 1:
					dst = v.Args[0]
				}
				if dst != nil {
					if b := baseVar(dst); isTracked(b) {
						pass.Reportf(v.Pos(),
							"raw store into pinned page bytes bypasses the WAL: "+
								"use AppendPageUpdate/MutatePage/LogLatchedMutation/UpdatePage so recovery sees a before/after image")
					}
				}
			}
			return true
		})
	}

	for _, f := range pass.Files {
		funcBodies(f, func(ft *ast.FuncType, body *ast.BlockStmt) { checkBody(body) })
	}
	return nil
}

// isBuiltinCopy reports whether call invokes the copy builtin.
func isBuiltinCopy(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "copy"
}
