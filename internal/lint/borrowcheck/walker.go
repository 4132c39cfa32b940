package borrowcheck

import (
	"go/ast"
	"go/types"

	"mcspeedup/internal/lint"
)

// This file holds the owner-side half of the core.Scratch contract: two
// rules about core's own walker plumbing, checked inside internal/core
// only (where the escape rules in borrowcheck.go exempt the owner). Test
// files are exempt: scratch_test.go deliberately constructs the flagged
// patterns to pin their runtime behavior.
//
//  1. A function that has borrowed the walker via o.acquireWalker must
//     not pass the same Options o on to another call while the borrow
//     is live: the nested walk silently falls back to the pool
//     (scratch_test.go pins that fallback is safe, but relying on it
//     defeats the arena and hides a layering mistake).
//  2. Every w := o.acquireWalker(...) must be followed immediately by
//     defer o.releaseWalker(w), so a panicking walk cannot leak the
//     borrow and poison the arena for its owner.

const corePkgPath = "mcspeedup/internal/core"

// checkBorrowDiscipline enforces both rules inside internal/core: an
// acquireWalker assignment must be chased by defer releaseWalker on the
// next statement, and the borrowed Options must not be handed to another
// call while the borrow is live.
func checkBorrowDiscipline(pass *lint.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || !isWalkerMethod(pass, call, "acquireWalker") {
				continue
			}
			if !followedByRelease(pass, block.List, i, as) {
				pass.Reportf(as.Pos(), "o.acquireWalker must be immediately followed by defer o.releaseWalker(w): without the defer a panicking walk leaks the borrowed Scratch")
			}
			reportBorrowedOptionsEscapes(pass, block.List[i+1:], call)
		}
		return true
	})
}

// isWalkerMethod reports whether call invokes the named core.Options
// walker method.
func isWalkerMethod(pass *lint.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == corePkgPath
}

// followedByRelease reports whether the statement after stmts[i] defers
// releaseWalker on a variable assigned by as.
func followedByRelease(pass *lint.Pass, stmts []ast.Stmt, i int, as *ast.AssignStmt) bool {
	if i+1 >= len(stmts) {
		return false
	}
	def, ok := stmts[i+1].(*ast.DeferStmt)
	if !ok || !isWalkerMethod(pass, def.Call, "releaseWalker") {
		return false
	}
	assigned := make(map[types.Object]bool)
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				assigned[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				assigned[obj] = true
			}
		}
	}
	for _, arg := range def.Call.Args {
		if id, ok := arg.(*ast.Ident); ok && assigned[pass.TypesInfo.Uses[id]] {
			return true
		}
	}
	return false
}

// reportBorrowedOptionsEscapes flags calls in rest that pass, as an
// argument, the Options value whose walker acquire is borrowed.
func reportBorrowedOptionsEscapes(pass *lint.Pass, rest []ast.Stmt, acquire *ast.CallExpr) {
	sel := acquire.Fun.(*ast.SelectorExpr)
	recv, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	optsObj := pass.TypesInfo.Uses[recv]
	if optsObj == nil {
		return
	}
	for _, stmt := range rest {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				id, ok := arg.(*ast.Ident)
				if ok && pass.TypesInfo.Uses[id] == optsObj {
					pass.Reportf(id.Pos(), "Options %s passed to a nested call while its Scratch walker is borrowed: the nested walk silently falls back to the pool, defeating the arena; use a fresh Options/Scratch", id.Name)
				}
			}
			return true
		})
	}
}
