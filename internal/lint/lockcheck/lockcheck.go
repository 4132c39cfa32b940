// Package lockcheck keeps pool admission out of critical sections: no
// function may block on admission (par.Pool.Acquire/TryAcquire) while
// it holds a mutex. Holding a lock across admission convoys every
// goroutine touching the guarded state behind the pool. The rule is
// interprocedural within the package: a fixed point over the package's
// own call graph marks every function that can reach admission, so a
// helper that blocks two calls deep is flagged at the locked call site.
//
// Locks are counted, not named: a sync Lock/RLock adds one held lock
// and an Unlock/RUnlock releases one. A deferred Unlock marks a lock
// held for the rest of the function, and function literals are walked
// as separate scopes holding nothing — a flight defined under the lock
// but run later does not inherit the lock.
//
// The rule applies module-wide and exempts test files.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"mcspeedup/internal/lint"
)

// Analyzer is the lockcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "lockcheck",
	Doc:  "report blocking pool admission under a mutex, directly or through the package's own helpers",
	Run:  run,
}

// localCall is a call to a function of the package under analysis.
type localCall struct {
	pos    token.Pos
	callee *types.Func
	locked bool // a lock is held at the call site
}

type funcInfo struct {
	name   string
	events []event
	calls  []localCall
	blocks string // the first admission call reachable from the function, "" if none
}

// event is one direct blocking call under a held lock.
type event struct {
	pos     token.Pos
	message string
}

func run(pass *lint.Pass) error {
	var infos []*funcInfo
	byFunc := make(map[*types.Func]*funcInfo)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			fi := walkFunc(pass, fd)
			infos = append(infos, fi)
			byFunc[fn] = fi
		}
	}

	// Fixed point: a function blocks if any same-package callee does.
	// blocks only goes from "" to set, so this terminates.
	calleeBlocks := func(c localCall) string {
		if fi, ok := byFunc[c.callee]; ok {
			return fi.blocks
		}
		return ""
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			for _, c := range fi.calls {
				if b := calleeBlocks(c); fi.blocks == "" && b != "" {
					fi.blocks = b
					changed = true
				}
			}
		}
	}

	// Direct blocking calls under a lock, then locked calls into
	// helpers that can block.
	for _, fi := range infos {
		for _, e := range fi.events {
			pass.Reportf(e.pos, "%s", e.message)
		}
		for _, c := range fi.calls {
			if b := calleeBlocks(c); c.locked && b != "" {
				pass.Reportf(c.pos, "%s calls %s, which can block on admission (%s), while holding a mutex: release the lock before the call",
					fi.name, c.callee.Name(), b)
			}
		}
	}
	return nil
}

// walkFunc collects one function's blocking events and same-package
// calls, counting the locks held in source order — the heuristic that
// matches how the repo writes critical sections (short, straight-line,
// unlock in the same function). Function literals are queued and walked
// as fresh scopes: their bodies run at call time, not where they are
// defined.
func walkFunc(pass *lint.Pass, fd *ast.FuncDecl) *funcInfo {
	fi := &funcInfo{name: fd.Name.Name}
	pending := []ast.Node{fd.Body}
	for len(pending) > 0 {
		body := pending[0]
		pending = pending[1:]
		held := 0
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if n.Body != body { // the queued literal itself re-enters here
					pending = append(pending, n.Body)
					return false
				}
			case *ast.DeferStmt:
				if isSyncCall(pass, n.Call, "Unlock", "RUnlock") {
					// Lock-for-the-rest idiom: the mutex stays held to
					// the end of the function (the Lock before the defer
					// usually counted it already).
					if held == 0 {
						held = 1
					}
					return false
				}
			case *ast.CallExpr:
				held = fi.call(pass, held, n)
			}
			return true
		})
	}
	return fi
}

// call records one call made with held locks and returns the new count.
func (fi *funcInfo) call(pass *lint.Pass, held int, n *ast.CallExpr) int {
	switch {
	case isSyncCall(pass, n, "Lock", "RLock"):
		return held + 1
	case isSyncCall(pass, n, "Unlock", "RUnlock"):
		if held > 0 {
			held--
		}
		return held
	}
	callee := calleeFunc(pass, n)
	if callee == nil || callee.Pkg() == nil {
		return held
	}
	pkg := lint.CanonicalPath(callee.Pkg().Path())
	if pkg == "mcspeedup/internal/par" && (callee.Name() == "Acquire" || callee.Name() == "TryAcquire") {
		desc := pkg + "." + callee.Name()
		if fi.blocks == "" {
			fi.blocks = desc
		}
		if held > 0 {
			fi.events = append(fi.events, event{pos: n.Pos(),
				message: fi.name + " calls " + desc + " while holding a mutex: blocking admission under a lock convoys every goroutine touching the guarded state"})
		}
		return held
	}
	if callee.Pkg() == pass.Pkg {
		fi.calls = append(fi.calls, localCall{pos: n.Pos(), callee: callee, locked: held > 0})
	}
	return held
}

// isSyncCall reports whether call is m.<name>() for one of names on a
// sync package receiver (Mutex or RWMutex).
func isSyncCall(pass *lint.Pass, call *ast.CallExpr, names ...string) bool {
	callee := calleeFunc(pass, call)
	if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync" {
		return false
	}
	for _, name := range names {
		if callee.Name() == name {
			return true
		}
	}
	return false
}

// calleeFunc resolves the called function or method, nil when the
// callee is not a named function (a func value, conversion, builtin).
func calleeFunc(pass *lint.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
