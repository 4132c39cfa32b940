package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadDirFacts parses and type-checks the package rooted at
// root/src/<path>, resolving imports of other packages under root/src
// the same way and falling back to the standard library's source
// importer for everything else. It is the loader behind the analyzers'
// testdata suites, mirroring the GOPATH layout
// golang.org/x/tools/go/analysis/analysistest uses. When includeTests
// is set, _test.go files of the target package (in the same package,
// i.e. the internal test variant) are checked with the library files.
//
// Every in-tree dependency package pulled in while resolving the
// target's imports is then walked (in dependency order) by the
// fact-exporting analyzers among those given, and the accumulated
// store is returned alongside the target package. The store is exactly
// what the vet tool would have handed the target's pass, so analyzer
// testdata suites exercise cross-package fact import for real.
func LoadDirFacts(root, path string, includeTests bool, analyzers []*Analyzer) (*Package, *FactStore, error) {
	fset := token.NewFileSet()
	ld := &dirLoader{
		root:     root,
		fset:     fset,
		packages: make(map[string]*types.Package),
		loaded:   make(map[string]*Package),
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	files, tpkg, info, err := ld.load(path, includeTests)
	if err != nil {
		return nil, nil, err
	}
	store := NewFactStore()
	for _, dep := range ld.order {
		if dep == path {
			continue
		}
		if _, err := RunPass(ld.loaded[dep], store, true, analyzers...); err != nil {
			return nil, nil, fmt.Errorf("lint: facts pass over %s: %w", dep, err)
		}
	}
	return &Package{Fset: fset, Files: files, Pkg: tpkg, TypesInfo: info}, store, nil
}

// dirLoader is a recursive source importer over a testdata src tree.
type dirLoader struct {
	root     string
	fset     *token.FileSet
	packages map[string]*types.Package
	loaded   map[string]*Package // full load results, for the facts phase
	order    []string            // completion order = dependency order
	fallback types.Importer
}

// Import implements types.Importer for the in-tree packages; anything
// not present under root/src is delegated to the source importer.
func (l *dirLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.packages[path]; ok {
		return pkg, nil
	}
	if dir := filepath.Join(l.root, "src", filepath.FromSlash(path)); dirExists(dir) {
		_, pkg, _, err := l.load(path, false)
		return pkg, err
	}
	return l.fallback.Import(path)
}

func (l *dirLoader) load(path string, includeTests bool) ([]*ast.File, *types.Package, *types.Info, error) {
	dir := filepath.Join(l.root, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("lint: loading %s: %w", path, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	l.packages[path] = tpkg
	// Imports complete before the importing package, so appending on
	// completion yields a dependency order for the facts phase.
	l.loaded[path] = &Package{Fset: l.fset, Files: files, Pkg: tpkg, TypesInfo: info}
	l.order = append(l.order, path)
	return files, tpkg, info, nil
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}
