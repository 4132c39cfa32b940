package lint

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// This file is the suite's one driver: the cmd/go vet-tool protocol,
// under which the suite runs as
// `go vet -vettool=$(go env GOPATH)/bin/mcs-vet ./...`:
//
//   - `mcs-vet -V=full` prints an identifying version line hashed over
//     the executable (cmd/go keys its vet result cache on it);
//   - `mcs-vet -flags` prints the tool's flags as JSON (cmd/go merges
//     them into `go vet`'s own flag set; the suite declares none);
//   - `mcs-vet <dir>/vet.cfg` analyzes one package unit described by the
//     JSON config cmd/go writes: source files, the import map, and the
//     export-data files of every dependency.
//
// The protocol is the one golang.org/x/tools/go/analysis/unitchecker
// speaks; this is a stdlib-only reimplementation (the module carries no
// third-party dependencies). cmd/go discovers the packages, orders them
// by dependency, builds the test variants and supplies the export data.
// Facts travel exactly as in the original: cmd/go hands each unit the
// vetx files of its direct dependencies (PackageVetx) and a path to
// write its own (VetxOutput); a unit writes the union of its
// dependencies' facts and its own, so the direct-dep vetx files always
// carry the transitive closure. Standard-library dependency units
// (VetxOnly with cfg.Standard set) are answered with an empty facts
// file — the suite's fact vocabulary is about module code only. Module
// dependency units run the fact-exporting analyzers so their facts
// exist, and report nothing, as the protocol requires.

// Config mirrors cmd/go's vetConfig (the JSON it writes to vet.cfg).
// Fields the suite does not consult are omitted; encoding/json ignores
// them on decode.
type Config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point of a vet tool built from this framework.
// It never returns.
func Main(analyzers ...*Analyzer) {
	progname := "mcs-vet"
	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	printVersion := fs.String("V", "", "print version and exit (go vet handshake; pass 'full')")
	printFlags := fs.Bool("flags", false, "print the tool's flags in JSON (go vet handshake)")
	fs.Parse(os.Args[1:])

	switch {
	case *printVersion != "":
		fmt.Printf("%s version devel buildID=%s\n", progname, executableHash())
		os.Exit(0)
	case *printFlags:
		fmt.Println("[]")
		os.Exit(0)
	}

	args := fs.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr,
			"%s: expected a vet configuration file\n"+
				"usage: go vet -vettool=$(command -v %s) ./...\n",
			progname, progname)
		os.Exit(1)
	}
	diags, err := runUnit(args[0], analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

// executableHash hashes the running binary, making the version line —
// and with it cmd/go's vet result cache key — change whenever the tool
// is rebuilt with different analyzers.
func executableHash() string {
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return fmt.Sprintf("%x", h.Sum(nil)[:16])
			}
		}
	}
	return "unknown"
}

// runUnit analyzes the single package unit described by cfgPath.
func runUnit(cfgPath string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}

	// Standard-library dependency units carry no suite facts:
	// acknowledge with an empty facts file, skipping the expensive
	// type-check of the entire standard library.
	if cfg.Standard[CanonicalPath(cfg.ImportPath)] || len(cfg.GoFiles) == 0 {
		return nil, writeVetx(&cfg, nil)
	}

	// Dependency facts: cmd/go supplies the vetx file of every direct
	// dependency; each file already carries its transitive closure.
	store := NewFactStore()
	deps := make([]string, 0, len(cfg.PackageVetx))
	for dep := range cfg.PackageVetx {
		deps = append(deps, dep)
	}
	sort.Strings(deps)
	for _, dep := range deps {
		vetx, err := os.ReadFile(cfg.PackageVetx[dep])
		if err != nil {
			return nil, fmt.Errorf("reading facts of %s: %w", dep, err)
		}
		facts, err := DecodeWire(vetx)
		if err != nil {
			return nil, fmt.Errorf("facts of %s: %w", dep, err)
		}
		store.AddWire(facts)
	}

	pkg, typecheckFailed, err := typecheckUnit(&cfg)
	if err != nil {
		return nil, err
	}
	if typecheckFailed { // SucceedOnTypecheckFailure
		return nil, writeVetx(&cfg, nil)
	}

	diags, err := RunPass(pkg, store, cfg.VetxOnly, analyzers...)
	if err != nil {
		return nil, err
	}
	// Re-export the closure: dependencies' facts plus our own.
	return diags, writeVetx(&cfg, EncodeWire(store.Wire(nil)))
}

// writeVetx writes the unit's facts file, if cmd/go asked for one.
func writeVetx(cfg *Config, data []byte) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	return os.WriteFile(cfg.VetxOutput, data, 0o666)
}

// typecheckUnit parses and type-checks the unit's files against the
// export data cmd/go supplied. The bool result reports a tolerated
// type-check failure (SucceedOnTypecheckFailure).
func typecheckUnit(cfg *Config) (*Package, bool, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, true, nil
			}
			return nil, false, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	// Export data of every dependency is supplied by cmd/go via
	// ImportMap (source import path → canonical package path) and
	// PackageFile (canonical path → export file).
	exportLookup := func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	compilerImporter := importer.ForCompiler(fset, compiler, exportLookup)
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		path, ok := cfg.ImportMap[importPath]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", importPath)
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	goarch := os.Getenv("GOARCH")
	if goarch == "" {
		goarch = runtime.GOARCH
	}
	conf := types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(compiler, goarch),
		GoVersion: cfg.GoVersion,
	}
	info := NewInfo()
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, true, nil
		}
		return nil, false, err
	}
	return &Package{Fset: fset, Files: files, Pkg: tpkg, TypesInfo: info}, false, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
