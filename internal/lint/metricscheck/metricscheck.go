// Package metricscheck keeps the mcs-serve observability surface
// honest. internal/server renders its Prometheus exposition by hand, so
// nothing but convention stops a metric family from being registered
// twice (two "# TYPE" lines — invalid exposition), rendered without a
// registration, or silently dropped from the rendering with no test
// noticing. Two rules over mcspeedup/internal/server:
//
//  1. Every mcs_* metric family has exactly one "# TYPE" line in the
//     non-test sources; a family rendered with no "# TYPE" at all is
//     also flagged. Histogram series (_bucket/_sum/_count) belong to
//     their base family.
//  2. When the pass includes the package's test files, every registered
//     family must be named somewhere in those tests — the /metrics
//     contract tests must pin each family so a renderer edit cannot
//     drop one unnoticed.
//
// Holding a lock across pool admission is lockcheck's rule 1.
package metricscheck

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"mcspeedup/internal/lint"
)

const serverPkgPath = "mcspeedup/internal/server"

var (
	typeLineRE   = regexp.MustCompile(`# TYPE (mcs_[a-zA-Z0-9_]+)`)
	metricNameRE = regexp.MustCompile(`mcs_[a-zA-Z0-9_]+`)
)

// histogramSuffixes are the series a histogram family renders under its
// base name.
var histogramSuffixes = []string{"_bucket", "_sum", "_count"}

// Analyzer is the metricscheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "metricscheck",
	Doc:  "mcs_* metrics registered exactly once and pinned by tests",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if lint.CanonicalPath(pass.Pkg.Path()) != serverPkgPath {
		return nil
	}

	registrations := make(map[string][]token.Pos) // family -> "# TYPE" sites
	uses := make(map[string][]token.Pos)          // any mcs_* literal mention
	testNames := make(map[string]bool)            // mcs_* mentions in test files
	hasTests := false

	for _, f := range pass.Files {
		isTest := pass.IsTestFile(f.Pos())
		hasTests = hasTests || isTest
		ast.Inspect(f, func(n ast.Node) bool {
			bl, ok := n.(*ast.BasicLit)
			if !ok || bl.Kind != token.STRING {
				return true
			}
			text, err := strconv.Unquote(bl.Value)
			if err != nil {
				text = bl.Value
			}
			if isTest {
				for _, name := range metricNameRE.FindAllString(text, -1) {
					testNames[name] = true
				}
				return true
			}
			for _, m := range typeLineRE.FindAllStringSubmatch(text, -1) {
				registrations[m[1]] = append(registrations[m[1]], bl.Pos())
			}
			for _, name := range metricNameRE.FindAllString(text, -1) {
				uses[name] = append(uses[name], bl.Pos())
			}
			return true
		})
	}

	for _, family := range sortedKeys(registrations) {
		sites := registrations[family]
		for _, pos := range sites[1:] {
			pass.Reportf(pos, "metric family %s registered more than once: a second \"# TYPE\" line makes the exposition invalid", family)
		}
		if hasTests && !mentionedInTests(family, testNames) {
			pass.Reportf(sites[0], "metric family %s is not asserted in any of the package's tests: pin it in the /metrics contract test so a renderer edit cannot drop it unnoticed", family)
		}
	}
	for _, name := range sortedKeys(uses) {
		if _, ok := registrations[baseFamily(name, registrations)]; !ok {
			pass.Reportf(uses[name][0], "metric %s is rendered but never registered with a \"# TYPE\" line", name)
		}
	}
	return nil
}

// baseFamily maps a rendered series name to its registered family,
// folding histogram suffixes onto the base name.
func baseFamily(name string, registrations map[string][]token.Pos) string {
	if _, ok := registrations[name]; ok {
		return name
	}
	for _, suffix := range histogramSuffixes {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if _, ok := registrations[base]; ok {
				return base
			}
		}
	}
	return name
}

// mentionedInTests reports whether the family (or one of its histogram
// series) appears in the test files.
func mentionedInTests(family string, testNames map[string]bool) bool {
	if testNames[family] {
		return true
	}
	for _, suffix := range histogramSuffixes {
		if testNames[family+suffix] {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string][]token.Pos) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
