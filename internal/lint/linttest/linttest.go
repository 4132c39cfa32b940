// Package linttest runs a lint.Analyzer over a GOPATH-style testdata
// tree and compares its diagnostics against `// want` expectations, the
// same contract as golang.org/x/tools/go/analysis/analysistest:
//
//	x := r.Num() + 1 // want `raw arithmetic`
//
// Every diagnostic must be matched by a want regexp on its line, and
// every want must be matched by a diagnostic. Unmatched either way fails
// the test, so the testdata packages pin both the flagged and the clean
// cases of each analyzer.
package linttest

import (
	"regexp"
	"testing"

	"mcspeedup/internal/lint"
)

// wantRE matches one expectation comment; group 1 is the quoted regexp.
// Both `backquoted` and "quoted" forms are accepted.
var wantRE = regexp.MustCompile("//\\s*want\\s+(?:`([^`]*)`|\"([^\"]*)\")")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads root/src/<path> (including its _test.go files) and checks
// the analyzer's diagnostics against the package's want comments.
func Run(t *testing.T, root, path string, a *lint.Analyzer) {
	t.Helper()
	pkg, err := loadDir(root, path)
	if err != nil {
		t.Fatalf("loading %s: %v", path, err)
	}
	diags, err := lint.RunPass(pkg, a)
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename, line: pos.Line, pattern: re,
					})
				}
			}
		}
	}

	for _, d := range diags {
		if !consume(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func consume(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
			w.pattern.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
