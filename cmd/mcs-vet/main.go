// Command mcs-vet is the repository's custom static-analysis suite: a
// vet tool (in the sense of `go vet -vettool`) enforcing the
// correctness invariants the analysis engine's guarantees rest on.
// Every analyzer is per-package; the interprocedural rules (arena
// laundering, admission under a lock) close over one package's own
// call graph.
//
// It runs only under cmd/go, one compilation unit per invocation:
//
//	go build -o $(go env GOPATH)/bin/mcs-vet ./cmd/mcs-vet
//	go vet -vettool=$(go env GOPATH)/bin/mcs-vet ./...
//
// The only flags are cmd/go's -V=full and -flags handshakes; every
// analyzer always runs. scripts/verify.sh runs the suite on every
// verification pass. See docs/STATIC_ANALYSIS.md for the analyzers,
// the invariants they protect, the edit to the real tree each one
// catches, and the //lint:ignore escape hatch.
package main

import (
	"mcspeedup/internal/lint"
	"mcspeedup/internal/lint/suite"
)

func main() {
	lint.Main(suite.Analyzers...)
}
