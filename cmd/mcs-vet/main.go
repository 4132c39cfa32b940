// Command mcs-vet is the repository's custom static-analysis suite: a
// vet tool (in the sense of `go vet -vettool`) enforcing the
// correctness invariants the analysis engine's guarantees rest on,
// with modular facts carrying interprocedural results (arena borrows,
// lock-order edges) across package boundaries.
//
// Two ways to drive it:
//
//	# under cmd/go, per compilation unit, facts in vetx files
//	go build -o $(go env GOPATH)/bin/mcs-vet ./cmd/mcs-vet
//	go vet -vettool=$(go env GOPATH)/bin/mcs-vet ./...
//
//	# standalone module mode: dependency-ordered, parallel, cached
//	mcs-vet [flags] [module-root]
//
// Module-mode flags: -workers N, -json, -sarif FILE, -github,
// -ignores (audit every //lint:ignore directive and fail on missing
// justifications or stale suppressions), -cache DIR, -nocache.
//
// scripts/verify.sh runs both modes on every verification pass. See
// docs/STATIC_ANALYSIS.md for the analyzers, their fact types, the
// invariants they protect, and the //lint:ignore escape hatch.
package main

import (
	"mcspeedup/internal/lint"
	"mcspeedup/internal/lint/suite"
)

func main() {
	lint.Main(suite.Analyzers...)
}
