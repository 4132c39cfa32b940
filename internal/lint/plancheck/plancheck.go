// Package plancheck enforces the containment contract of the compiled
// columnar demand plans (see the "Columnar demand plans" section of
// docs/PERF.md) and the event budget of the walks that run over them.
// The plan is a struct-of-arrays lowering of a task set; its correctness
// rests on two invariants that types alone cannot carry across packages,
// and the walks' termination on a third, so this analyzer pins them:
//
//  1. No hand-built plans: a dbf.Plan composite literal outside
//     internal/dbf bypasses CompilePlan/Compile and can
//     leave the columns mutually inconsistent (lengths, carry geometry,
//     reciprocal cache). Plans must be produced by the compile entry
//     points. Raw column *indexing* is already impossible outside
//     internal/dbf — the columns are unexported — so flagging raw
//     construction closes the remaining hole.
//  2. Confined API: Plan methods (and dbf.CompilePlan) may be called
//     only from internal/core, the analysis layer that owns the walkers.
//     Higher layers (server, experiments, cmd) consume demand through
//     core's analyses; letting them hold plans would decouple a plan
//     from the set it was compiled from.
//  3. Bounded walks: inside internal/core, every function that starts a
//     walk — calls Options.acquireWalker — must consult the event budget
//     (Options.MaxEvents or the maxEvents helper). An uncapped
//     pseudo-polynomial walk can run effectively forever on adversarial
//     parameters; the budget turns that into a reported, inexact (or
//     error) result.
//
// Test files are exempt everywhere (the reference walks there evaluate
// the task structs directly), and the hiWalker methods themselves are
// exempt from rule 3 (they are the walk mechanism, not a policy site).
package plancheck

import (
	"go/ast"
	"go/types"

	"mcspeedup/internal/lint"
)

const (
	dbfPkgPath  = "mcspeedup/internal/dbf"
	corePkgPath = "mcspeedup/internal/core"
)

// Analyzer is the plancheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "plancheck",
	Doc:  "confine the columnar demand-plan API to internal/dbf + internal/core and require an event budget on every demand walk",
	Run:  run,
}

func run(pass *lint.Pass) error {
	pkgPath := lint.CanonicalPath(pass.Pkg.Path())
	if pkgPath == dbfPkgPath {
		return nil
	}
	inCore := pkgPath == corePkgPath
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		checkLiterals(pass, f)
		if !inCore {
			checkConfinement(pass, f)
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isWalkerMethod(fd) {
				continue
			}
			checkBudget(pass, fd)
		}
	}
	return nil
}

// checkLiterals flags dbf.Plan composite literals (rule 1): outside internal/dbf the only way to obtain a usable plan is the
// compile entry points. Embedding the zero value as a struct field is
// fine and not a literal.
func checkLiterals(pass *lint.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if isDBFPlan(pass, cl) {
			pass.Reportf(cl.Pos(), "dbf.Plan composite literal: construct plans with dbf.CompilePlan or (*dbf.Plan).Compile so the columns stay mutually consistent")
		}
		return true
	})
}

// checkConfinement flags Plan method calls and dbf.CompilePlan
// outside internal/core (rule 2).
func checkConfinement(pass *lint.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || lint.CanonicalPath(fn.Pkg().Path()) != dbfPkgPath {
			return true
		}
		recv := recvTypeName(fn)
		if recv == "Plan" || (recv == "" && fn.Name() == "CompilePlan") {
			pass.Reportf(sel.Pos(), "the columnar demand-plan API (%s) is confined to internal/core: evaluate demand through the core analyses so plan reuse stays keyed by set fingerprint", sel.Sel.Name)
		}
		return true
	})
}

// checkBudget applies rule 3 to one internal/core function body: a
// walker acquisition requires a read of the event budget in the same
// function.
func checkBudget(pass *lint.Pass, fd *ast.FuncDecl) {
	var (
		acquire        ast.Node // first Options.acquireWalker call
		readsMaxEvents bool
	)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pass.Pkg.Path() {
			return true
		}
		switch obj := obj.(type) {
		case *types.Func:
			switch obj.Name() {
			case "acquireWalker":
				if acquire == nil {
					acquire = sel
				}
			case "maxEvents":
				readsMaxEvents = true
			}
		case *types.Var:
			if obj.IsField() && obj.Name() == "MaxEvents" {
				readsMaxEvents = true
			}
		}
		return true
	})
	if acquire != nil && !readsMaxEvents {
		pass.Reportf(acquire.Pos(), "%s starts a demand walk (acquireWalker) without consulting Options.MaxEvents (or maxEvents): unbudgeted pseudo-polynomial walks can run unbounded on adversarial parameters", fd.Name.Name)
	}
}

// isWalkerMethod reports whether fd is declared on hiWalker (the walk
// mechanism itself, exempt from the budget rule).
func isWalkerMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.Name == "hiWalker"
}

// recvTypeName returns the name of fn's receiver named type ("" for
// package-level functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// isDBFPlan reports whether the composite literal's type is dbf.Plan.
func isDBFPlan(pass *lint.Pass, cl *ast.CompositeLit) bool {
	tv, ok := pass.TypesInfo.Types[cl]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		lint.CanonicalPath(named.Obj().Pkg().Path()) == dbfPkgPath && named.Obj().Name() == "Plan"
}
