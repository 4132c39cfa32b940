package borrowcheck_test

import (
	"testing"

	"mcspeedup/internal/lint/borrowcheck"
	"mcspeedup/internal/lint/linttest"
)

func TestBorrowcheckCoreArena(t *testing.T) {
	linttest.Run(t, "testdata", "a", borrowcheck.Analyzer)
}

func TestBorrowcheckSimArena(t *testing.T) {
	linttest.Run(t, "testdata", "b", borrowcheck.Analyzer)
}

func TestBorrowcheckLaunderingPackage(t *testing.T) {
	linttest.Run(t, "testdata", "mcspeedup/internal/keep", borrowcheck.Analyzer)
}

func TestBorrowcheckOwnerPackagesExempt(t *testing.T) {
	linttest.Run(t, "testdata", "mcspeedup/internal/core", borrowcheck.Analyzer)
	linttest.Run(t, "testdata", "mcspeedup/internal/sim", borrowcheck.Analyzer)
}

// TestBorrowcheckWalkerDiscipline pins the owner-side rules inside
// internal/core: acquireWalker chased by defer releaseWalker, and no
// nested use of the borrowed Options.
func TestBorrowcheckWalkerDiscipline(t *testing.T) {
	linttest.Run(t, "testdata", "mcspeedup/internal/core", borrowcheck.Analyzer)
}
