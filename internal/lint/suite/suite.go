// Package suite declares the repository's full analyzer roster — the
// single list cmd/mcs-vet runs, so a new analyzer registered here is
// part of every vet run at once.
package suite

import (
	"mcspeedup/internal/lint"
	"mcspeedup/internal/lint/borrowcheck"
	"mcspeedup/internal/lint/deltacheck"
	"mcspeedup/internal/lint/determcheck"
	"mcspeedup/internal/lint/lockcheck"
	"mcspeedup/internal/lint/metricscheck"
	"mcspeedup/internal/lint/plancheck"
	"mcspeedup/internal/lint/ratcheck"
)

// Analyzers is the suite, in reporting-name order within each theme:
// the determinism and theorem-shape analyzers first, then the two
// whose rules close over the package's own call graph.
var Analyzers = []*lint.Analyzer{
	ratcheck.Analyzer,
	determcheck.Analyzer,
	metricscheck.Analyzer,
	plancheck.Analyzer,
	deltacheck.Analyzer,
	borrowcheck.Analyzer,
	lockcheck.Analyzer,
}
