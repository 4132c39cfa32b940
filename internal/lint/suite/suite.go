// Package suite declares the repository's full analyzer roster — the
// single list cmd/mcs-vet, the benchmarks, and the round-trip tests
// all drive, so a new analyzer registered here is everywhere at once.
package suite

import (
	"mcspeedup/internal/lint"
	"mcspeedup/internal/lint/borrowcheck"
	"mcspeedup/internal/lint/ctxcheck"
	"mcspeedup/internal/lint/deltacheck"
	"mcspeedup/internal/lint/determcheck"
	"mcspeedup/internal/lint/lockcheck"
	"mcspeedup/internal/lint/metricscheck"
	"mcspeedup/internal/lint/plancheck"
	"mcspeedup/internal/lint/ratcheck"
	"mcspeedup/internal/lint/scratchcheck"
)

// Analyzers is the suite, in reporting-name order within each theme:
// the determinism and theorem-shape analyzers first (per-package),
// then the fact-based interprocedural ones.
var Analyzers = []*lint.Analyzer{
	ratcheck.Analyzer,
	determcheck.Analyzer,
	scratchcheck.Analyzer,
	metricscheck.Analyzer,
	plancheck.Analyzer,
	deltacheck.Analyzer,
	borrowcheck.Analyzer,
	ctxcheck.Analyzer,
	lockcheck.Analyzer,
}
