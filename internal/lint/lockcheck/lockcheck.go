// Package lockcheck enforces the module's lock discipline with a
// module-wide lock-acquisition graph assembled from facts:
//
//  1. No blocking admission under a mutex: holding a lock across pool
//     admission (par.Pool.Acquire/TryAcquire) convoys every goroutine
//     touching the guarded state behind the pool. With Blocks facts the
//     rule is interprocedural — a helper that blocks three calls deep
//     is flagged at the locked call site.
//
//  2. Consistent lock order: every function exports the locks it
//     acquires and the held-while-acquiring edges between them
//     (Acquires/Edges in the Locks fact). Each package checks its own
//     edges against the edges exported by its dependency closure; an
//     edge that closes a cycle against them is a potential deadlock,
//     reported at the acquisition completing it. (A cycle confined to
//     one package has no dependency order to pick the completing side
//     and is not reported — cross-package reversals, the kind no
//     per-package reading can see, are exactly what the facts buy.)
//
// Lock identity is syntactic but cross-package stable: a sync
// Lock/RLock receiver resolves to "pkg.Var" for a package-level mutex
// or "pkg.Type.field" for a struct field; mutexes in local variables
// get no key (they still count as "a mutex is held" for rule 1, but
// produce no graph edges). A deferred Unlock marks its mutex held for
// the rest of the function, and function literals are walked as
// separate scopes holding nothing — a flight defined under the lock
// but run later does not inherit the lock.
//
// Both rules apply module-wide and exempt test files.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"mcspeedup/internal/lint"
)

// LockEdge is one held-while-acquiring edge: From was held when To was
// acquired at At (file:line, base name only, for portability).
type LockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	At   string `json:"at"`
}

// Locks is the per-function fact: the locks the function may acquire
// (directly or transitively), the lock-order edges it establishes, and
// the blocking operations it may perform.
type Locks struct {
	Acquires []string   `json:"acquires,omitempty"`
	Edges    []LockEdge `json:"edges,omitempty"`
	Blocks   []string   `json:"blocks,omitempty"`
}

// AFact marks Locks as a lint fact.
func (*Locks) AFact() {}

// Analyzer is the lockcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name:      "lockcheck",
	Doc:       "build the module-wide lock-acquisition graph from Locks facts: report lock-order cycles and blocking admission under a mutex",
	FactTypes: []lint.Fact{(*Locks)(nil)},
	Run:       run,
}

// edge is an own lock-order edge with its source position.
type edge struct {
	from, to string
	pos      token.Pos
}

// moduleCall is a call to a module function with the locks held at the
// call site.
type moduleCall struct {
	pos    token.Pos
	callee *types.Func
	held   []string // keyed locks held (may be empty even when anonymous locks are)
	locked bool     // any lock held, keyed or not
}

type funcInfo struct {
	fn       *types.Func
	name     string
	events   []event
	calls    []moduleCall
	acquires map[string]bool
	blocks   map[string]bool
	edges    []edge
	edgeSeen map[[2]string]bool
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
			fi := walkFunc(pass, fd, fn)
			infos = append(infos, fi)
			byFunc[fn] = fi
		}
	}

	// Fixed point: callers inherit their callees' acquires and blocks,
	// through same-package summaries and imported facts, and locked
	// call sites turn callee acquires into lock-order edges.
	calleeLocks := func(c moduleCall) (acquires, blocks []string) {
		if fi, ok := byFunc[c.callee]; ok {
			return sortedKeys(fi.acquires), sortedKeys(fi.blocks)
		}
		var fact Locks
		if pass.ImportObjectFact(c.callee, &fact) {
			return fact.Acquires, fact.Blocks
		}
		return nil, nil
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			for _, c := range fi.calls {
				acquires, blocks := calleeLocks(c)
				for _, b := range blocks {
					if !fi.blocks[b] {
						fi.blocks[b] = true
						changed = true
					}
				}
				for _, a := range acquires {
					if !fi.acquires[a] {
						fi.acquires[a] = true
						changed = true
					}
					for _, h := range c.held {
						if h != a && fi.addEdge(h, a, c.pos) {
							changed = true
						}
					}
				}
			}
		}
	}

	for _, fi := range infos {
		if len(fi.acquires) == 0 && len(fi.edges) == 0 && len(fi.blocks) == 0 {
			continue
		}
		fact := &Locks{Acquires: sortedKeys(fi.acquires), Blocks: sortedKeys(fi.blocks)}
		for _, e := range fi.edges {
			fact.Edges = append(fact.Edges, LockEdge{From: e.from, To: e.to, At: atString(pass, e.pos)})
		}
		sort.Slice(fact.Edges, func(i, j int) bool {
			if fact.Edges[i].From != fact.Edges[j].From {
				return fact.Edges[i].From < fact.Edges[j].From
			}
			return fact.Edges[i].To < fact.Edges[j].To
		})
		pass.ExportObjectFact(fi.fn, fact)
	}

	// Rule 1: blocking under a lock — direct events, then locked calls
	// into functions whose Blocks fact is non-empty.
	for _, fi := range infos {
		for _, e := range fi.events {
			pass.Reportf(e.pos, "%s", e.message)
		}
		for _, c := range fi.calls {
			if !c.locked {
				continue
			}
			_, blocks := calleeLocks(c)
			if len(blocks) == 0 {
				continue
			}
			calleePkg := ""
			if c.callee.Pkg() != nil {
				calleePkg = lint.CanonicalPath(c.callee.Pkg().Path())
			}
			pass.Reportf(c.pos, "%s calls %s.%s, which can block on admission (%s), while holding a mutex (Blocks fact): release the lock before the call",
				fi.name, calleePkg, c.callee.Name(), strings.Join(blocks, ", "))
		}
	}

	// Rule 2: lock-order cycles. The graph is every edge exported by
	// the dependency closure; each own edge that closes a cycle against
	// it is a potential deadlock, reported at the acquisition
	// completing it. Own-package facts are deliberately excluded from
	// the graph — within one package there is no dependency order to
	// decide which side of a cycle "completes" it, and including them
	// would flag the canonical-order function alongside the violator.
	self := lint.CanonicalPath(pass.Pkg.Path())
	graph := make(map[string][]string)
	addArc := func(from, to string) {
		for _, t := range graph[from] {
			if t == to {
				return
			}
		}
		graph[from] = append(graph[from], to)
	}
	for _, of := range pass.AllObjectFacts((*Locks)(nil)) {
		if of.Pkg == self {
			continue
		}
		for _, e := range of.Fact.(*Locks).Edges {
			addArc(e.From, e.To)
		}
	}
	for _, arcs := range graph {
		sort.Strings(arcs)
	}
	for _, fi := range infos {
		for _, e := range fi.edges {
			path := findPath(graph, e.to, e.from)
			if path == nil {
				continue
			}
			cycle := append([]string{e.from}, path...)
			pass.Reportf(e.pos, "%s acquires %s while holding %s: lock-order cycle %s — acquire module locks in one consistent order (Locks facts)",
				fi.name, e.to, e.from, strings.Join(cycle, " -> "))
		}
	}
	return nil
}

func (fi *funcInfo) addEdge(from, to string, pos token.Pos) bool {
	k := [2]string{from, to}
	if fi.edgeSeen[k] {
		return false
	}
	fi.edgeSeen[k] = true
	fi.edges = append(fi.edges, edge{from: from, to: to, pos: pos})
	return true
}

// findPath returns the lock keys on a shortest path from src to dst
// (inclusive), or nil if dst is unreachable. BFS over sorted adjacency,
// so the reported cycle is deterministic.
func findPath(graph map[string][]string, src, dst string) []string {
	prev := map[string]string{src: ""}
	queue := []string{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			var path []string
			for at := dst; ; at = prev[at] {
				path = append([]string{at}, path...)
				if at == src {
					return path
				}
			}
		}
		for _, next := range graph[n] {
			if _, seen := prev[next]; !seen {
				prev[next] = n
				queue = append(queue, next)
			}
		}
	}
	return nil
}

func atString(pass *lint.Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + itoa(p.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// scope tracks the locks held while walking one function or literal
// body in source order — the heuristic that matches how the repo
// writes critical sections (short, straight-line, unlock in the same
// function). A deferred Unlock pins its mutex held to the end.
type scope struct {
	heldKeys []string
	heldSet  map[string]bool
	anonHeld int // held locks without a stable key (locals, embedded)
}

func (s *scope) locked() bool { return len(s.heldKeys) > 0 || s.anonHeld > 0 }

// walkFunc collects one function's acquires, edges, blocking events and
// module calls. Function literals are queued and walked as fresh
// scopes: their bodies run at call time, not where they are defined.
func walkFunc(pass *lint.Pass, fd *ast.FuncDecl, fn *types.Func) *funcInfo {
	fi := &funcInfo{
		fn:       fn,
		name:     fd.Name.Name,
		acquires: make(map[string]bool),
		blocks:   make(map[string]bool),
		edgeSeen: make(map[[2]string]bool),
	}
	pending := []ast.Node{fd.Body}
	for len(pending) > 0 {
		body := pending[0]
		pending = pending[1:]
		sc := &scope{heldSet: make(map[string]bool)}
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
					// the end of the function; skip the call so it is
					// not treated as a release here.
					fi.deferHold(pass, sc, n.Call)
					return false
				}
			case *ast.CallExpr:
				fi.call(pass, sc, n)
			}
			return true
		})
	}
	return fi
}

// deferHold handles `defer mu.Unlock()`: if the mutex is not already
// tracked as held (the usual Lock-then-defer pair marks it first),
// treat the defer as evidence it is held from here on.
func (fi *funcInfo) deferHold(pass *lint.Pass, sc *scope, call *ast.CallExpr) {
	key := lockKeyOf(pass, call)
	if key == "" {
		if sc.anonHeld == 0 {
			sc.anonHeld++
		}
		return
	}
	if !sc.heldSet[key] {
		fi.acquire(sc, key, call.Pos())
	}
}

// acquire records taking key with the current held set, adding one
// lock-order edge per held lock.
func (fi *funcInfo) acquire(sc *scope, key string, pos token.Pos) {
	for _, h := range sc.heldKeys {
		if h != key {
			fi.addEdge(h, key, pos)
		}
	}
	fi.acquires[key] = true
	if !sc.heldSet[key] {
		sc.heldSet[key] = true
		sc.heldKeys = append(sc.heldKeys, key)
	}
}

func (fi *funcInfo) call(pass *lint.Pass, sc *scope, n *ast.CallExpr) {
	switch {
	case isSyncCall(pass, n, "Lock", "RLock"):
		if key := lockKeyOf(pass, n); key != "" {
			fi.acquire(sc, key, n.Pos())
		} else {
			sc.anonHeld++
		}
		return
	case isSyncCall(pass, n, "Unlock", "RUnlock"):
		if key := lockKeyOf(pass, n); key != "" && sc.heldSet[key] {
			delete(sc.heldSet, key)
			for i, h := range sc.heldKeys {
				if h == key {
					sc.heldKeys = append(sc.heldKeys[:i], sc.heldKeys[i+1:]...)
					break
				}
			}
		} else if sc.anonHeld > 0 {
			sc.anonHeld--
		}
		return
	}
	callee := calleeFunc(pass, n)
	if callee == nil {
		return
	}
	pkg := ""
	if callee.Pkg() != nil {
		pkg = lint.CanonicalPath(callee.Pkg().Path())
	}
	if desc := blockingDesc(callee, pkg); desc != "" {
		fi.blocks[desc] = true
		if sc.locked() {
			fi.events = append(fi.events, event{pos: n.Pos(),
				message: fi.name + " calls " + pkg + "." + callee.Name() + " while holding a mutex: blocking admission under a lock convoys every goroutine touching the guarded state"})
		}
		return
	}
	if pkg == "mcspeedup" || strings.HasPrefix(pkg, "mcspeedup/") {
		fi.calls = append(fi.calls, moduleCall{
			pos:    n.Pos(),
			callee: callee,
			held:   append([]string(nil), sc.heldKeys...),
			locked: sc.locked(),
		})
	}
}

// blockingDesc names callee if it can block on admission (the pool
// semaphore), else "".
func blockingDesc(callee *types.Func, pkg string) string {
	if pkg == "mcspeedup/internal/par" && (callee.Name() == "Acquire" || callee.Name() == "TryAcquire") {
		return pkg + "." + callee.Name()
	}
	return ""
}

// lockKeyOf resolves the receiver of a sync Lock/Unlock call to a
// cross-package-stable key: "pkg.Var" for a package-level mutex,
// "pkg.Type.field" for a mutex field of a named struct, "" otherwise.
func lockKeyOf(pass *lint.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return lint.CanonicalPath(v.Pkg().Path()) + "." + v.Name()
		}
	case *ast.SelectorExpr:
		v, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.Parent() == v.Pkg().Scope() {
			return lint.CanonicalPath(v.Pkg().Path()) + "." + v.Name()
		}
		if v.IsField() {
			selInfo, ok := pass.TypesInfo.Selections[x]
			if !ok {
				return ""
			}
			t := selInfo.Recv()
			for {
				p, ok := t.(*types.Pointer)
				if !ok {
					break
				}
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return lint.CanonicalPath(named.Obj().Pkg().Path()) + "." + named.Obj().Name() + "." + v.Name()
			}
		}
	}
	return ""
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
