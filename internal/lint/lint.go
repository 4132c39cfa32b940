// Package lint is a self-contained static-analysis framework in the
// style of golang.org/x/tools/go/analysis, built entirely on the
// standard library's go/ast, go/parser and go/types (the module has no
// third-party dependencies, so x/tools itself is not available).
//
// It hosts the mcs-vet analyzer suite — see docs/STATIC_ANALYSIS.md —
// which turns this repository's correctness conventions into
// compiler-grade checks. Since the facts layer landed (fact.go), the
// suite is a cross-package dataflow engine, not a per-package linter:
// analyzers export typed, JSON-serialized facts attached to
// package-level objects, and dependent packages import those facts
// during their own pass, so an arena laundered through a helper in
// another package, or a pool admission two calls below a locked call
// site, is still visible. Analyzers run dependency-ordered and — in
// module mode (modrunner.go) — in parallel over internal/par, with the
// final diagnostic order byte-identical for any worker count.
//
// A diagnostic on a given line is suppressed by a directive comment
//
//	//lint:ignore <analyzer> <one-line justification>
//
// placed on the same line or the line immediately above. The
// justification is mandatory: a bare ignore is itself reported, and
// `mcs-vet -ignores` audits every directive for staleness.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:ignore
	// directives. It must be a valid command-line flag name.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Requires lists analyzers that must run before this one on each
	// package (their facts and any shared conventions are then in
	// place). The drivers add the closure automatically and order each
	// package's passes topologically.
	Requires []*Analyzer
	// FactTypes declares the fact types this analyzer may export and
	// import — one zero value per type, each a pointer to a struct.
	// Analyzers with facts are run on dependency packages too (to
	// produce the facts dependents consume), so their Run must be cheap
	// on packages that merely pass through.
	FactTypes []Fact
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	store       *FactStore
	visiblePkgs map[string]bool // fact visibility; nil = whole store
	exported    []wireFact      // facts this pass exported (for caching)
	diagnostics []Diagnostic
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// CanonicalPath strips the test-variant suffix from an import path: when
// cmd/go vets a test build it names the package "p [p.test]", but the
// analyzers scope themselves by the underlying package p.
func CanonicalPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// ByteIdenticalScope is the single declared list of packages carrying
// the byte-identical "-workers N" reproduction guarantee (PR 1): their
// rendered output must be a pure function of inputs, independent of
// wall clock, process-global randomness, map order and goroutine
// schedule. determcheck enforces the discipline in exactly these
// packages — plus any package that fans work out over
// par.ForEach/par.Map, which is auto-included so a new parallel driver
// cannot silently fall outside the guarantee (see determcheck's
// UsesParFanOut).
var ByteIdenticalScope = []string{
	"mcspeedup",
	"mcspeedup/internal/core",
	"mcspeedup/internal/dbf",
	"mcspeedup/internal/experiments",
	"mcspeedup/internal/fleet",
	"mcspeedup/internal/gen",
	"mcspeedup/cmd/mcs-experiments",
}

// InByteIdenticalScope reports whether the canonical package path is on
// the declared determinism-critical list.
func InByteIdenticalScope(path string) bool {
	for _, p := range ByteIdenticalScope {
		if p == path {
			return true
		}
	}
	return false
}

// Package bundles the loaded inputs shared by every analyzer of a run.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult
// allocated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// An IgnoreInfo describes one //lint:ignore directive found in a
// package, with the audit state `mcs-vet -ignores` reports: a directive
// is stale when no diagnostic of its analyzer was suppressed at its
// site, and malformed when the justification is missing.
type IgnoreInfo struct {
	Pos           token.Position `json:"pos"`
	Analyzer      string         `json:"analyzer"`
	Justification string         `json:"justification"`
	Used          bool           `json:"used"`
	Malformed     bool           `json:"malformed"`
}

// Run applies the analyzers to pkg, filters findings through the
// //lint:ignore directives found in the package's comments, and returns
// the surviving diagnostics sorted by position. Facts are confined to a
// throwaway store; drivers that thread facts between packages use
// RunPass.
func Run(pkg *Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunPass(pkg, NewFactStore(), nil, false, analyzers...)
	return diags, err
}

// RunPass applies the analyzers (expanded to their Requires closure and
// topologically ordered) to pkg against the facts in store, exporting
// new facts into it. visible restricts fact imports to the given
// canonical package paths (nil = the whole store). When factsOnly is
// set, diagnostics are discarded — the dependency-package mode in which
// only fact production matters. It returns the surviving diagnostics
// sorted by position and the audit state of every ignore directive.
func RunPass(pkg *Package, store *FactStore, visible map[string]bool, factsOnly bool, analyzers ...*Analyzer) ([]Diagnostic, []IgnoreInfo, error) {
	ordered, err := SortAnalyzers(analyzers)
	if err != nil {
		return nil, nil, err
	}
	var diags []Diagnostic
	for _, a := range ordered {
		if factsOnly && len(a.FactTypes) == 0 {
			continue
		}
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Pkg,
			TypesInfo:   pkg.TypesInfo,
			store:       store,
			visiblePkgs: visible,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		diags = append(diags, pass.diagnostics...)
	}
	if factsOnly {
		return nil, nil, nil
	}
	diags, ignores := applyIgnores(pkg, diags)
	SortDiagnostics(diags)
	return diags, ignores, nil
}

// SortAnalyzers expands the Requires closure of the given analyzers and
// returns them in a deterministic topological order (dependencies
// first, ties broken by name). A Requires cycle is an error.
func SortAnalyzers(analyzers []*Analyzer) ([]*Analyzer, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[*Analyzer]int)
	var ordered []*Analyzer
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: analyzer dependency cycle through %s", a.Name)
		}
		state[a] = visiting
		reqs := append([]*Analyzer(nil), a.Requires...)
		sort.Slice(reqs, func(i, j int) bool { return reqs[i].Name < reqs[j].Name })
		for _, r := range reqs {
			if err := visit(r); err != nil {
				return err
			}
		}
		state[a] = done
		ordered = append(ordered, a)
		return nil
	}
	for _, a := range analyzers {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// SortDiagnostics orders diags by position, then analyzer — the
// deterministic order every driver emits regardless of worker count.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// ignoreKey identifies the scope of one //lint:ignore directive: the
// named analyzer is silenced on the directive's own line and on the
// line immediately below (so the directive can precede the statement).
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

const ignorePrefix = "//lint:ignore "

// applyIgnores drops diagnostics covered by a justified ignore
// directive and reports malformed directives (no justification) as
// diagnostics in their own right, so the escape hatch cannot silently
// rot into a blanket waiver. Alongside the surviving diagnostics it
// returns the audit record of every directive found, with Used set on
// those that actually suppressed something — the input of the
// `mcs-vet -ignores` staleness audit.
func applyIgnores(pkg *Package, diags []Diagnostic) ([]Diagnostic, []IgnoreInfo) {
	var infos []IgnoreInfo
	ignores := make(map[ignoreKey]int) // directive scope -> index into infos
	var malformed []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if name == "" || reason == "" {
					malformed = append(malformed, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <justification>\"",
					})
					infos = append(infos, IgnoreInfo{Pos: pos, Analyzer: name, Justification: reason, Malformed: true})
					continue
				}
				infos = append(infos, IgnoreInfo{Pos: pos, Analyzer: name, Justification: reason})
				idx := len(infos) - 1
				for _, line := range [...]int{pos.Line, pos.Line + 1} {
					ignores[ignoreKey{pos.Filename, line, name}] = idx
				}
			}
		}
	}
	kept := malformed
	for _, d := range diags {
		if idx, ok := ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; ok {
			infos[idx].Used = true
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(infos, func(i, j int) bool {
		a, b := infos[i], infos[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return kept, infos
}
