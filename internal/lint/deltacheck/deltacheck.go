// Package deltacheck enforces the two conventions that keep the
// incremental (session) analysis path sound — see the "Incremental
// analysis" section of docs/PERF.md, "Per-class aggregate cache". A
// dbf.SetState caches demand aggregates next to mutable task state, so
// its correctness rests on discipline the compiler cannot see:
//
//  1. Locked sessions (mcspeedup/internal/server): a server session
//     wraps a core.Session, which is not safe for concurrent use and is
//     reachable from many handler goroutines. Every function that
//     touches a session's `core` field must lock that session's `mu` in
//     the same function body. A helper that reads "because its callers
//     hold the lock" is exactly the convention that rots — pass the
//     needed values in instead, or lock.
//
//  2. Invalidated caches (mcspeedup/internal/dbf): SetState caches the
//     results of the cold aggregate folds over its set, each behind a
//     per-parameter-class validity bit. Only SetState's own methods may
//     write its fields (the constructor NewSetState is the one
//     exemption), and any method that replaces the task data itself —
//     assigns the `set` field — must call noteChange in the same body,
//     the single hook that clears the cache bits the edit's parameter
//     classes feed. A write that bypasses noteChange leaves valid bits
//     on caches describing a set that no longer exists.
//
// Both rules exempt _test.go files.
package deltacheck

import (
	"go/ast"
	"go/types"

	"mcspeedup/internal/lint"
)

const (
	serverPkgPath = "mcspeedup/internal/server"
	dbfPkgPath    = "mcspeedup/internal/dbf"
)

// Analyzer is the deltacheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "deltacheck",
	Doc:  "session state only under its lock; SetState mutations only via methods that invalidate dependent caches",
	Run:  run,
}

func run(pass *lint.Pass) error {
	switch lint.CanonicalPath(pass.Pkg.Path()) {
	case serverPkgPath:
		runServer(pass)
	case dbfPkgPath:
		runDBF(pass)
	}
	return nil
}

// fieldOf reports the field name sel selects when the receiver is the
// named struct type recvName (through a pointer or not), or "".
func fieldOf(pass *lint.Pass, sel *ast.SelectorExpr, recvName string) string {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != recvName {
		return ""
	}
	return s.Obj().Name()
}

// --- rule 1: internal/server session locking ---

func runServer(pass *lint.Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSessionFunc(pass, fd)
		}
	}
}

func checkSessionFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	var coreUse ast.Node
	locks := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch fieldOf(pass, sel, "session") {
		case "core":
			if coreUse == nil {
				coreUse = sel
			}
		case "mu":
			// A lock site is sn.mu.Lock(); the inner selector is the mu
			// field, the outer one resolves to sync.Mutex.Lock.
			locks = true
		}
		return true
	})
	if coreUse != nil && !locks {
		pass.Reportf(coreUse.Pos(),
			"%s uses a session's core state without locking its mu in the same function: core.Session is not concurrency-safe, and \"the caller holds the lock\" conventions rot — lock here or pass values in",
			fd.Name.Name)
	}
}

// --- rule 2: internal/dbf SetState mutation discipline ---

func runDBF(pass *lint.Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "NewSetState" {
				continue
			}
			checkStateFunc(pass, fd)
		}
	}
}

// isSetStateMethod reports whether fd is declared on SetState.
func isSetStateMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == "SetState"
}

// stateFieldTarget unwraps an assignment target (through indexing and
// parens) to a SetState field selector, returning the field name or "".
func stateFieldTarget(pass *lint.Pass, e ast.Expr) (string, ast.Node) {
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.SelectorExpr:
			return fieldOf(pass, v, "SetState"), v
		default:
			return "", nil
		}
	}
}

func checkStateFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	method := isSetStateMethod(fd)
	var setWrite ast.Node
	callsNote := false
	report := func(field string, at ast.Node) {
		if field == "" {
			return
		}
		if !method {
			pass.Reportf(at.Pos(),
				"%s writes SetState field %s outside SetState's methods: the cached aggregates are only coherent when every mutation runs through the methods that maintain them",
				fd.Name.Name, field)
			return
		}
		if field == "set" && setWrite == nil {
			setWrite = at
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				report(stateFieldTarget(pass, lhs))
			}
		case *ast.IncDecStmt:
			report(stateFieldTarget(pass, n.X))
		case *ast.SelectorExpr:
			s, ok := pass.TypesInfo.Selections[n]
			if ok && s.Kind() == types.MethodVal && s.Obj().Name() == "noteChange" {
				callsNote = true
			}
		}
		return true
	})
	if setWrite != nil && !callsNote {
		pass.Reportf(setWrite.Pos(),
			"%s replaces SetState.set without calling noteChange: dependent demand caches keep describing the old set; fold or invalidate them through noteChange in the same method",
			fd.Name.Name)
	}
}
