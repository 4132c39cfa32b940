package linttest

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

	"mcspeedup/internal/lint"
)

// loadDir parses and type-checks the package rooted at root/src/<path>,
// with its _test.go files of the same package (the internal test
// variant). Imports of other packages under root/src are resolved the
// same way, and everything else falls back to the standard library's
// source importer: the GOPATH layout
// golang.org/x/tools/go/analysis/analysistest uses.
func loadDir(root, path string) (*lint.Package, error) {
	fset := token.NewFileSet()
	ld := &dirLoader{
		root:     root,
		fset:     fset,
		packages: make(map[string]*types.Package),
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	return ld.load(path, true)
}

// dirLoader is a recursive source importer over a testdata src tree.
type dirLoader struct {
	root     string
	fset     *token.FileSet
	packages map[string]*types.Package
	fallback types.Importer
}

// Import implements types.Importer for the in-tree packages; anything
// not present under root/src is delegated to the source importer.
func (l *dirLoader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.packages[path]; ok {
		return pkg, nil
	}
	if dir := filepath.Join(l.root, "src", filepath.FromSlash(path)); dirExists(dir) {
		pkg, err := l.load(path, false)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.fallback.Import(path)
}

func (l *dirLoader) load(path string, includeTests bool) (*lint.Package, error) {
	dir := filepath.Join(l.root, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("linttest: loading %s: %w", path, err)
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
		return nil, fmt.Errorf("linttest: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := lint.NewInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("linttest: type-checking %s: %w", path, err)
	}
	l.packages[path] = tpkg
	return &lint.Package{Fset: l.fset, Files: files, Pkg: tpkg, TypesInfo: info}, nil
}

func dirExists(dir string) bool {
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}
