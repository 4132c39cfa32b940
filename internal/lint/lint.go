// Package lint is a self-contained static-analysis framework in the
// style of golang.org/x/tools/go/analysis, built entirely on the
// standard library's go/ast, go/parser and go/types (the module has no
// third-party dependencies, so x/tools itself is not available).
//
// It hosts the mcs-vet analyzer suite — see docs/STATIC_ANALYSIS.md —
// which turns this repository's correctness conventions into
// compiler-grade checks. Analyzers export typed, JSON-serialized facts
// attached to package-level objects (fact.go), and dependent packages
// import those facts during their own pass, so an arena laundered
// through a helper in another package, or a pool admission two calls
// below a locked call site, is still visible. The suite has one
// driver, the cmd/go vet-tool protocol (unitchecker.go): cmd/go orders
// the packages and carries the facts between them in vetx files.
//
// A diagnostic on a given line is suppressed by a directive comment
//
//	//lint:ignore <analyzer> <one-line justification>
//
// placed on the same line or the line immediately above. The
// justification is mandatory and the directive must suppress
// something: a bare or a stale directive is itself reported.
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
// the byte-identical "-workers N" reproduction guarantee: their
// rendered output must be a pure function of inputs, independent of
// wall clock, process-global randomness, map order and goroutine
// schedule. determcheck enforces the discipline in exactly these
// packages — plus any package that fans work out over
// par.ForEach/par.Map, which is auto-included so a new parallel driver
// cannot silently fall outside the guarantee (see determcheck's
// usesParFanOut). internal/lint itself fans nothing out and is not in
// scope.
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

// RunPass applies the analyzers, in the given order, to pkg against the
// facts in store, exporting new facts into it. When factsOnly is set,
// only the fact-exporting analyzers run and no diagnostics are
// returned — the dependency-package mode in which only fact production
// matters. Otherwise it returns the diagnostics that survive the
// package's //lint:ignore directives, plus one for every malformed or
// stale directive, sorted by position.
func RunPass(pkg *Package, store *FactStore, factsOnly bool, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		if factsOnly && len(a.FactTypes) == 0 {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
			store:     store,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		diags = append(diags, pass.diagnostics...)
	}
	if factsOnly {
		return nil, nil
	}
	diags = applyIgnores(pkg, diags)
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
	return diags, nil
}

// ignoreKey identifies the scope of one //lint:ignore directive: the
// named analyzer is silenced on the directive's own line and on the
// line immediately below (so the directive can precede the statement).
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// A directive is one justified //lint:ignore comment; used records
// whether it suppressed a diagnostic.
type directive struct {
	pos      token.Position
	analyzer string
	used     bool
}

const ignorePrefix = "//lint:ignore "

// applyIgnores drops diagnostics covered by a justified ignore
// directive and reports, as "lint" diagnostics in their own right,
// every malformed directive (no justification) and every stale one
// (justified, but nothing of its analyzer to suppress), so the escape
// hatch can neither rot into a blanket waiver nor outlive the finding
// it was written for.
func applyIgnores(pkg *Package, diags []Diagnostic) []Diagnostic {
	var kept []Diagnostic
	var directives []*directive
	scope := make(map[ignoreKey]*directive)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				if name == "" || strings.TrimSpace(reason) == "" {
					kept = append(kept, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "malformed //lint:ignore: want \"//lint:ignore <analyzer> <justification>\"",
					})
					continue
				}
				d := &directive{pos: pos, analyzer: name}
				directives = append(directives, d)
				for _, line := range [...]int{pos.Line, pos.Line + 1} {
					scope[ignoreKey{pos.Filename, line, name}] = d
				}
			}
		}
	}
	for _, d := range diags {
		if dir, ok := scope[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]; ok {
			dir.used = true
			continue
		}
		kept = append(kept, d)
	}
	for _, dir := range directives {
		if !dir.used {
			kept = append(kept, Diagnostic{
				Analyzer: "lint",
				Pos:      dir.pos,
				Message:  fmt.Sprintf("stale //lint:ignore %s: no %s diagnostic on this line or the next; delete the directive", dir.analyzer, dir.analyzer),
			})
		}
	}
	return kept
}
